"""Hand-built ``MetricsRegistry.export_state()`` dumps for fold/merge tests.

A registry only hands out families declared in ``repro.obs.schema``, but
the accumulators fold dumps read back from journals — input from outside
the program — so their tests build dumps over ad hoc families directly.
"""

from __future__ import annotations

from bisect import bisect_left


def _family(kind: str, unit: str, buckets, instances: dict) -> dict:
    return {"kind": kind, "unit": unit, "help": "", "buckets": list(buckets),
            "instances": instances}


def metric_state(*, counter=None, gauge=None, observations=None, buckets=(10, 100)) -> dict:
    """A dump with ``t.count`` (counter), ``t.level`` (gauge) and ``t.size``
    (histogram over ``buckets``); a family whose argument is None is absent."""
    state = {}
    if counter is not None:
        state["t.count"] = _family("counter", "items", (), {"t.count": counter})
    if gauge is not None:
        state["t.level"] = _family("gauge", "items", (), {"t.level": gauge})
    if observations is not None:
        bucket_counts = [0] * (len(buckets) + 1)
        for value in observations:
            bucket_counts[bisect_left(buckets, value)] += 1
        raw = {"bucket_counts": bucket_counts, "count": len(observations),
               "sum": sum(observations)}
        state["t.size"] = _family("histogram", "b", buckets, {"t.size": raw})
    return state
