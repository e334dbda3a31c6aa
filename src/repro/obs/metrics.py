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
   incremented live at all; instead a component registers a *collector*,
   a bound method that returns ``{instance key: value}`` read from its
   existing counters, and every read reports those values as gauges.

Declaration: every family is declared once, in
:data:`repro.obs.schema.SCHEMA` (kind, unit, help, buckets), so a
registry holds only values — one flat ``{instance key: instrument}``
map plus the last collected values — and a forked machine's fresh
registry builds no per-family objects.  An instance is addressed by its
family name plus a sorted label set, rendered ``name{k=v,...}``.
Re-requesting the same identity returns the same instance; requesting
an undeclared name, or a declared one as the wrong kind, raises
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
docs/CAMPAIGNS.md).  Dumps are input from outside the program (journal
records), so the accumulator checks kinds and buckets itself.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

from repro.obs.schema import COUNTER, GAUGE, HISTOGRAM, SCHEMA, MetricSpec
from repro.sim.errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
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

    kind = COUNTER
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value set by its owner (collectors report theirs directly)."""

    kind = GAUGE
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram (upper bounds declared in the schema).

    ``observe`` costs one bisect over a small tuple plus two adds; bucket
    counts are kept per-bucket and rendered cumulatively at snapshot time
    with an implicit ``+Inf`` overflow bucket.
    """

    kind = HISTOGRAM
    __slots__ = ("buckets", "bucket_counts", "count", "sum")

    def __init__(self, buckets: tuple) -> None:
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
    kind = COUNTER
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def __reduce__(self):
        # Pickle (and deepcopy) as the module singleton so shipped
        # machine snapshots keep sharing one stateless instrument.
        return "NULL_COUNTER"


class _NullGauge:
    kind = GAUGE
    __slots__ = ()

    def set(self, value) -> None:
        pass

    def __reduce__(self):
        return "NULL_GAUGE"


class _NullHistogram:
    kind = HISTOGRAM
    __slots__ = ()

    def observe(self, value) -> None:
        pass

    def __reduce__(self):
        return "NULL_HISTOGRAM"


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()
_NULLS = {COUNTER: NULL_COUNTER, GAUGE: NULL_GAUGE, HISTOGRAM: NULL_HISTOGRAM}


def _family(key: str) -> str:
    """The family name of an instance key (``name{k=v}`` -> ``name``)."""
    return key.partition("{")[0]


def _spec(name: str, kind: str) -> MetricSpec:
    """``name``'s declared spec, which must be of ``kind``."""
    spec = SCHEMA.get(name)
    if spec is None:
        raise ConfigError(f"metric {name!r} is not declared in repro.obs.schema")
    if spec.kind != kind:
        raise ConfigError(f"metric {name!r} is declared as {spec.kind}, requested {kind}")
    return spec


class MetricsRegistry:
    """The values of every metric one :class:`Machine` emits.

    Instruments live in one flat ``{instance key: instrument}`` map;
    collectors are callables returning ``{instance key: value}`` for
    declared gauges.  Kinds, units, help and buckets come from
    :data:`~repro.obs.schema.SCHEMA`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict = {}
        self._collectors: list = []
        self._collected: dict = {}

    # -- instruments --------------------------------------------------

    def _get(self, cls, name, labels):
        spec = _spec(name, cls.kind)
        if not self.enabled:
            return _NULLS[cls.kind]
        key = metric_key(name, labels)
        metric = self._instruments.get(key)
        if metric is None:
            metric = Histogram(spec.buckets) if cls is Histogram else cls()
            self._instruments[key] = metric
        return metric

    def counter(self, name, labels=None):
        """Get-or-create a declared counter; a null singleton when disabled."""
        return self._get(Counter, name, labels)

    def gauge(self, name, labels=None):
        """Get-or-create a declared gauge; a null singleton when disabled."""
        return self._get(Gauge, name, labels)

    def histogram(self, name, labels=None):
        """Get-or-create a declared histogram; a null singleton when disabled."""
        return self._get(Histogram, name, labels)

    def add_collector(self, fn) -> None:
        """Register ``fn() -> {instance key: value}``, run before every read.

        Collectors read pre-existing substrate counters (bank activation
        totals, cache hit counts, ...) and report them as gauges, so the
        simulation's hottest paths carry no live instrumentation at all.
        A collector already registered (an equal bound method, as when a
        component is re-bound to the same hub) is not added again.
        """
        if self.enabled and fn not in self._collectors:
            self._collectors.append(fn)

    def close(self) -> None:
        """Drop every collector (the registry's owner has ended).

        A collector is bound to the component it reads, which points back
        at this registry through its hub; dropping them breaks that
        cycle.  Values already exported are unaffected, and later reads
        return the last collected values without re-collecting.
        """
        self._collectors.clear()

    # -- reading ------------------------------------------------------

    def collect(self) -> None:
        """Refresh the collected gauge values (kept as they are once closed)."""
        if self._collectors:
            collected: dict = {}
            for fn in self._collectors:
                collected.update(fn())
            self._collected = collected

    def _rows(self) -> list:
        """``(family, key, spec, value)`` per instance, collectors run first.

        Sorted by family, then key; ``value`` is a number, or the
        :class:`Histogram` itself.
        """
        self.collect()
        rows = []
        for key, metric in self._instruments.items():
            name = _family(key)
            value = metric if metric.kind == HISTOGRAM else metric.value
            rows.append((name, key, SCHEMA[name], value))
        for key, value in self._collected.items():
            name = _family(key)
            rows.append((name, key, _spec(name, GAUGE), value))
        rows.sort(key=lambda row: (row[0], row[1]))
        return rows

    def family_names(self) -> list[str]:
        """Sorted names of the families with an instance (the contract surface)."""
        return sorted({row[0] for row in self._rows()})

    def snapshot(self) -> dict:
        """Run collectors, then return ``{instance key: value}`` sorted."""
        return {
            key: value.snapshot_value() if spec.kind == HISTOGRAM else value
            for _, key, spec, value in self._rows()
        }

    def export_state(self) -> dict:
        """Raw, mergeable dump of every family (see :class:`MetricStateAccumulator`).

        Unlike :meth:`snapshot`, histogram buckets come out *per-bucket*
        (not cumulative) so two dumps can be added bucket-wise.  The dump
        is plain data — safe to pickle across process boundaries.
        """
        out: dict = {}
        for name, key, spec, value in self._rows():
            family = out.get(name)
            if family is None:
                family = out[name] = {
                    "kind": spec.kind,
                    "unit": spec.unit,
                    "help": spec.help,
                    "buckets": list(spec.buckets),
                    "instances": {},
                }
            if spec.kind == HISTOGRAM:
                value = {
                    "bucket_counts": list(value.bucket_counts),
                    "count": value.count,
                    "sum": value.sum,
                }
            family["instances"][key] = value
        return out

    def render_table(self) -> str:
        """Human-readable dump of every instance (used by ``--metrics``)."""
        rows = []
        for _, key, spec, value in self._rows():
            if spec.kind == HISTOGRAM:
                value = f"count={value.count} sum={value.sum}"
            rows.append((key, spec.kind, str(value), spec.unit))
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
