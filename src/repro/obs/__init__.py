"""Observability: sim-time tracing and always-on metrics.

One :class:`Observability` hub per :class:`~repro.core.machine.Machine`
bundles a :class:`MetricsRegistry` (always on unless the machine config
disables it) and a :class:`Tracer` (off until explicitly enabled, e.g. by
the CLI ``--trace`` flag).  Components receive the hub through a
``bind_obs()`` call after construction and default to the module-level
:data:`NOOP_OBS`, so direct construction in unit tests needs no wiring.

Every metric family is declared once, in :data:`repro.obs.schema.SCHEMA`
(kind, unit, help, buckets); a registry holds only values, so a forked
machine's fresh hub builds no per-family objects.  The full telemetry
contract — every span name, metric name, label and unit — is documented
in ``docs/OBSERVABILITY.md`` and cross-checked against the schema by
``scripts/check_telemetry_docs.py``.
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)
from repro.obs.trace import NULL_SPAN, Span, TraceRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_OBS",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_SPAN",
    "Observability",
    "Span",
    "TraceRecord",
    "Tracer",
]


class Observability:
    """Per-machine hub pairing a metrics registry with a tracer."""

    def __init__(self, clock=None, metrics_enabled=True, trace_enabled=False,
                 wall_time=False):
        self.metrics = MetricsRegistry(enabled=metrics_enabled)
        self.tracer = Tracer(clock, enabled=trace_enabled, wall_time=wall_time)


class _NoopObservability(Observability):
    """The shared disabled hub; pickles back to the module singleton.

    Machine snapshots replace the live hub with :data:`NOOP_OBS` during
    the copy, so a snapshot shipped to a worker process must rehydrate
    to *that worker's* singleton — forking then swaps in a fresh hub via
    ``Machine._rebind_obs`` exactly as it does in-process.
    """

    def __reduce__(self):
        return "NOOP_OBS"


#: Shared disabled hub — the default every component is born bound to.
NOOP_OBS = _NoopObservability(metrics_enabled=False)
