"""Medians, spreads, the tail-percentile rule and regression verdicts."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Absolute floor under a time metric's regression bound, per unit: a change
#: smaller than this is never a regression, however small the baseline.
TIME_FLOOR = {"s": 0.05, "ms": 50.0}


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for one sample)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def summarize(values) -> dict:
    values = list(values)
    q1, q3 = quartiles(values)
    return {
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": spread(values),
        "n": len(values),
        "values": values,
    }


def percentile(values, pct: float) -> float | None:
    """Nearest-rank ``pct``-th percentile, or None with under 10 samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def allowed_worsening(base: float, bound: float, unit: str) -> float:
    """How far a metric may worsen from ``base``: its bound share, or the unit's floor."""
    return max(abs(base) * bound, TIME_FLOOR.get(unit, 0.0))


def verdict(base, new, *, bound: float, unit: str, better: str) -> str:
    """``better``, ``same``, ``worse`` or ``unresolved`` for two sets of values.

    Unresolved when either side's inter-quartile distance exceeds the
    allowed worsening, unless every new value beats every base value.
    Worse when the median moved the wrong way by more than the allowed
    worsening; better when it moved the right way by more than both
    inter-quartile distances.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_mid = median(base)
    worsening = sign * (median(new) - base_mid)
    allowed = allowed_worsening(base_mid, bound, unit)
    noise = max(q3 - q1 for q1, q3 in (quartiles(base), quartiles(new)))
    if noise > allowed:
        beats_all = max(new) < min(base) if better == "lower" else min(new) > max(base)
        return "better" if beats_all else "unresolved"
    if worsening > allowed:
        return "worse"
    if -worsening > noise:
        return "better"
    return "same"
