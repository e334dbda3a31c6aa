"""Always-on metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints, in order of importance:

1. *Cheap enough to leave on.*  A live counter increment is one attribute
   load plus one integer add.  Components bind their metric handles once
   (at ``bind_obs`` time) so hot paths never perform registry lookups.
2. *Free when off.*  A disabled registry hands out shared null singletons
   whose mutators are empty methods, so instrumented code needs no
   ``if enabled`` branches of its own.
3. *Zero hot-path cost for high-frequency substrate counters.*  Metrics
   that would require touching the per-access DRAM/cache paths are not
   incremented live at all; instead the registry supports *collector*
   callbacks that copy existing substrate counters into metric values at
   snapshot time.

Identity: a metric is addressed by its family name plus a sorted label
set, rendered ``name{k=v,...}``.  Re-requesting the same identity returns
the same instance; requesting it with a different kind raises
:class:`~repro.sim.errors.ConfigError`.

Campaign fan-out adds a fourth concern: *mergeability*.  Every attempt of
an :class:`~repro.attack.orchestrator.AttackCampaign` runs on a forked
machine with its own registry, so a campaign-level view needs the
per-attempt registries combined.  :meth:`MetricsRegistry.export_state`
dumps the raw (pre-cumulative) values and a
:class:`MetricStateAccumulator` folds such dumps, one at a time, into
one block — counters summed, histograms added bucket-wise, gauges listed
per source in order — with a result that depends only on the dump order,
never on which process or worker produced each dump (see
docs/CAMPAIGNS.md).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.sim.errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricStateAccumulator",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]


def metric_key(name: str, labels: dict[str, str] | None) -> str:
    """Canonical instance key: ``name`` or ``name{k=v,...}`` (sorted keys)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing integer (resets only with the machine)."""

    kind = "counter"
    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot_value(self):
        return self.value


class Gauge:
    """Point-in-time value, typically refreshed by a collector callback."""

    kind = "gauge"
    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def snapshot_value(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram (upper bounds chosen at registration).

    ``observe`` costs one bisect over a small tuple plus two adds; bucket
    counts are kept per-bucket and rendered cumulatively at snapshot time
    with an implicit ``+Inf`` overflow bucket.
    """

    kind = "histogram"
    __slots__ = ("key", "buckets", "bucket_counts", "count", "sum")

    def __init__(self, key: str, buckets: tuple) -> None:
        self.key = key
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, value) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    def snapshot_value(self):
        return _render_histogram(self.buckets, self.bucket_counts, self.count, self.sum)


class _NullCounter:
    kind = "counter"
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def __reduce__(self):
        # Pickle (and deepcopy) as the module singleton so shipped
        # machine snapshots keep sharing one stateless instrument.
        return "NULL_COUNTER"


class _NullGauge:
    kind = "gauge"
    __slots__ = ()

    def set(self, value) -> None:
        pass

    def __reduce__(self):
        return "NULL_GAUGE"


class _NullHistogram:
    kind = "histogram"
    __slots__ = ()

    def observe(self, value) -> None:
        pass

    def __reduce__(self):
        return "NULL_HISTOGRAM"


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


@dataclass
class MetricFamily:
    """Contract metadata for one metric name (shared across label sets)."""

    name: str
    kind: str
    unit: str
    help: str
    label_keys: tuple[str, ...] = ()
    buckets: tuple = ()
    instances: dict = field(default_factory=dict)


class MetricsRegistry:
    """Owns every metric family emitted by one :class:`Machine`."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.families: dict[str, MetricFamily] = {}
        self._collectors: list = []

    # -- registration -------------------------------------------------

    def _register(self, cls, name, labels, unit, help, buckets=()):
        labels = dict(labels) if labels else None
        family = self.families.get(name)
        if family is None:
            family = MetricFamily(
                name=name,
                kind=cls.kind,
                unit=unit,
                help=help,
                label_keys=tuple(sorted(labels)) if labels else (),
                buckets=buckets,
            )
            self.families[name] = family
        elif family.kind != cls.kind:
            raise ConfigError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested {cls.kind}"
            )
        key = metric_key(name, labels)
        metric = family.instances.get(key)
        if metric is None:
            if cls is Histogram:
                metric = Histogram(key, family.buckets)
            else:
                metric = cls(key)
            family.instances[key] = metric
        return metric

    def counter(self, name, labels=None, unit="", help=""):
        """Get-or-create a counter; a null singleton when disabled."""
        if not self.enabled:
            return NULL_COUNTER
        return self._register(Counter, name, labels, unit, help)

    def gauge(self, name, labels=None, unit="", help=""):
        """Get-or-create a gauge; a null singleton when disabled."""
        if not self.enabled:
            return NULL_GAUGE
        return self._register(Gauge, name, labels, unit, help)

    def histogram(self, name, buckets, labels=None, unit="", help=""):
        """Get-or-create a histogram; a null singleton when disabled."""
        if not self.enabled:
            return NULL_HISTOGRAM
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigError(f"histogram {name!r} buckets must be ascending")
        return self._register(
            Histogram, name, labels, unit, help, buckets=tuple(buckets)
        )

    def add_collector(self, fn) -> None:
        """Register a callback run before every snapshot.

        Collectors copy pre-existing substrate counters (bank activation
        totals, cache hit counts, ...) into gauges so the simulation's
        hottest paths carry no live instrumentation at all.
        """
        if self.enabled:
            self._collectors.append(fn)

    def close(self) -> None:
        """Drop every collector (the registry's owner has ended).

        A collector closes over the components it reads, which point back
        at this registry through their hub; dropping them breaks that
        cycle.  Values already exported are unaffected, and later reads
        return the last values without re-collecting.
        """
        self._collectors.clear()

    # -- reading ------------------------------------------------------

    def collect(self) -> None:
        for fn in self._collectors:
            fn()

    def family_names(self) -> list[str]:
        """Sorted metric family names (the documented contract surface)."""
        return sorted(self.families)

    def snapshot(self) -> dict:
        """Run collectors, then return ``{instance key: value}`` sorted."""
        self.collect()
        out: dict = {}
        for name in sorted(self.families):
            family = self.families[name]
            for key in sorted(family.instances):
                out[key] = family.instances[key].snapshot_value()
        return out

    def export_state(self) -> dict:
        """Raw, mergeable dump of every family (see :class:`MetricStateAccumulator`).

        Unlike :meth:`snapshot`, histogram buckets come out *per-bucket*
        (not cumulative) so two dumps can be added bucket-wise.  The dump
        is plain data — safe to pickle across process boundaries.
        """
        self.collect()
        out: dict = {}
        for name in sorted(self.families):
            family = self.families[name]
            instances: dict = {}
            for key in sorted(family.instances):
                metric = family.instances[key]
                if family.kind == "histogram":
                    instances[key] = {
                        "bucket_counts": list(metric.bucket_counts),
                        "count": metric.count,
                        "sum": metric.sum,
                    }
                else:
                    instances[key] = metric.value
            out[name] = {
                "kind": family.kind,
                "unit": family.unit,
                "help": family.help,
                "buckets": list(family.buckets),
                "instances": instances,
            }
        return out

    def render_table(self) -> str:
        """Human-readable dump of every instance (used by ``--metrics``)."""
        self.collect()
        rows = []
        for name in sorted(self.families):
            family = self.families[name]
            for key in sorted(family.instances):
                value = family.instances[key].snapshot_value()
                if family.kind == "histogram":
                    value = f"count={value['count']} sum={value['sum']}"
                rows.append((key, family.kind, str(value), family.unit))
        if not rows:
            return "(metrics disabled)"
        widths = [
            max(len(row[col]) for row in rows + [_HEADER]) for col in range(4)
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(_HEADER, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(
                "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)


_HEADER = ("metric", "kind", "value", "unit")


def _render_histogram(buckets: Sequence, bucket_counts: Sequence, count, total):
    """Cumulative ``le_<bound>`` buckets plus ``le_inf``, as every snapshot shows them."""
    cumulative: dict[str, int] = {}
    running = 0
    for bound, n in zip(buckets, bucket_counts):
        running += n
        cumulative[f"le_{bound}"] = running
    cumulative["le_inf"] = running + bucket_counts[-1]
    return {"count": count, "sum": total, "buckets": cumulative}


class MetricStateAccumulator:
    """Streaming fold over :meth:`MetricsRegistry.export_state` dumps.

    Dumps are added one at a time (:meth:`add`, in attempt order), so a
    campaign holds one merged block rather than one dump per attempt.
    The result depends only on that order, never on which worker
    produced each dump:

    - counters: summed across every state where the instance appears;
    - histograms: bucket counts added bucket-wise (bucket bounds must
      agree across states), rendered cumulatively like a live snapshot;
    - gauges: one value per source state, in order, ``None`` where the
      instance is absent — a point-in-time value has no meaningful sum.
    """

    def __init__(self) -> None:
        self._families: dict[str, dict] = {}
        self._count = 0

    @property
    def sources(self) -> int:
        """Number of states added so far."""
        return self._count

    def add(self, state: dict) -> None:
        """Fold one exported state into the accumulator (order matters)."""
        index = self._count
        families = self._families
        for name, dump in state.items():
            merged = families.get(name)
            if merged is None:
                merged = {
                    "kind": dump["kind"],
                    "unit": dump["unit"],
                    "buckets": list(dump["buckets"]),
                    "instances": {},
                }
                families[name] = merged
            elif merged["kind"] != dump["kind"]:
                raise ConfigError(
                    f"metric {name!r} is {merged['kind']} in one state and "
                    f"{dump['kind']} in another; cannot merge"
                )
            elif (
                merged["kind"] == "histogram"
                and merged["buckets"] != list(dump["buckets"])
            ):
                raise ConfigError(
                    f"histogram {name!r} bucket bounds differ across states; "
                    "cannot merge bucket-wise"
                )
            for key, raw in dump["instances"].items():
                instances = merged["instances"]
                if merged["kind"] == "counter":
                    instances[key] = instances.get(key, 0) + raw
                elif merged["kind"] == "gauge":
                    values = instances.setdefault(key, [None] * index)
                    values.extend([None] * (index - len(values)))
                    values.append(raw)
                else:
                    slot = instances.get(key)
                    if slot is None:
                        slot = {
                            "bucket_counts": [0] * len(raw["bucket_counts"]),
                            "count": 0,
                            "sum": 0,
                        }
                        instances[key] = slot
                    for i, n in enumerate(raw["bucket_counts"]):
                        slot["bucket_counts"][i] += n
                    slot["count"] += raw["count"]
                    slot["sum"] += raw["sum"]
        self._count += 1

    def result(self) -> dict:
        """Render the merged block (callable once all states are added)."""
        out: dict = {"sources": self._count, "families": {}}
        for name in sorted(self._families):
            merged = self._families[name]
            instances: dict = {}
            for key in sorted(merged["instances"]):
                raw = merged["instances"][key]
                if merged["kind"] == "gauge":
                    raw = raw + [None] * (self._count - len(raw))
                elif merged["kind"] == "histogram":
                    raw = _render_histogram(
                        merged["buckets"], raw["bucket_counts"],
                        raw["count"], raw["sum"],
                    )
                instances[key] = raw
            out["families"][name] = {
                "kind": merged["kind"],
                "unit": merged["unit"],
                "instances": instances,
            }
        return out
