"""Per-attempt metrics snapshots for fold/merge tests.

A campaign attempt hands over its registry's ``snapshot()``; these
helpers build such snapshots over three declared families, one of each
kind, through a real :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

COUNTER_KEY = "dram.flips"
GAUGE_KEY = "dram.activations"
HISTOGRAM_KEY = "dram.hammer.activations_per_call"


def metric_state(*, counter=None, gauge=None, observations=None) -> dict:
    """A snapshot with ``COUNTER_KEY`` at ``counter``, ``GAUGE_KEY`` at
    ``gauge`` and ``HISTOGRAM_KEY`` over ``observations``; a family whose
    argument is None is absent."""
    registry = MetricsRegistry()
    if counter is not None:
        registry.counter(COUNTER_KEY).inc(counter)
    if gauge is not None:
        registry.gauge(GAUGE_KEY).set(gauge)
    if observations is not None:
        histogram = registry.histogram(HISTOGRAM_KEY)
        for value in observations:
            histogram.observe(value)
    return registry.snapshot()
