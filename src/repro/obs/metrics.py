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
per-attempt registries combined.  Each attempt hands over its
:meth:`MetricsRegistry.snapshot` and a :class:`MetricStateAccumulator`
folds those snapshots, one at a time, into one block — counters summed,
histograms added bucket-wise, gauges listed per source in order — with a
result that depends only on the snapshot order, never on which process
or worker produced each one (see docs/CAMPAIGNS.md).  Kinds, units and
buckets come from the schema, not from the snapshots; snapshots are
input from outside the program (journal records), so the accumulator
checks every value against its declared family.
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
        cycle.  Values already read are unaffected, and later reads
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
    """Streaming fold over :meth:`MetricsRegistry.snapshot` values.

    Snapshots are added one at a time (:meth:`add`, in attempt order), so
    a campaign holds one merged block rather than one snapshot per
    attempt.  Only values are kept; kinds, units and buckets come from
    :data:`~repro.obs.schema.SCHEMA`.  The result depends only on the
    order of the adds, never on which worker produced each snapshot:

    - counters: summed across every snapshot where the instance appears;
    - histograms: ``count``, ``sum`` and the cumulative ``le_…`` counts
      added key-wise, exactly as adding per-bucket counts would;
    - gauges: one value per source snapshot, in order, ``None`` where the
      instance is absent — a point-in-time value has no meaningful sum.
    """

    def __init__(self) -> None:
        self._values: dict = {}
        self._count = 0

    @property
    def sources(self) -> int:
        """Number of snapshots added so far."""
        return self._count

    def add(self, snapshot: dict) -> None:
        """Fold one snapshot in (order matters); a value that does not fit
        its declared family raises :class:`~repro.sim.errors.ConfigError`."""
        if type(snapshot) is not dict:
            raise ConfigError(f"a metrics snapshot must be a dict, not {snapshot!r}")
        values = self._values
        for key, value in snapshot.items():
            spec = SCHEMA.get(_family(key))
            if spec is None:
                raise ConfigError(f"metric {key!r} is not declared in repro.obs.schema")
            merged = values.get(key)
            if spec.kind == HISTOGRAM and merged is None:
                merged = _render_histogram(spec.buckets, [0] * (len(spec.buckets) + 1), 0, 0)
            if not _fits(spec.kind, value, merged):
                raise ConfigError(f"{spec.kind} {key!r} cannot hold {value!r}")
            if spec.kind == COUNTER:
                values[key] = (merged or 0) + value
            elif spec.kind == GAUGE:
                values.setdefault(key, {})[self._count] = value
            else:
                values[key] = merged
                merged["count"] += value["count"]
                merged["sum"] += value["sum"]
                for bucket, n in value["buckets"].items():
                    merged["buckets"][bucket] += n
        self._count += 1

    def result(self) -> dict:
        """Render the merged block (callable once all snapshots are added)."""
        out: dict = {"sources": self._count, "families": {}}
        for key in sorted(self._values, key=lambda key: (_family(key), key)):
            name, value = _family(key), self._values[key]
            spec = SCHEMA[name]
            if spec.kind == GAUGE:
                value = [value.get(index) for index in range(self._count)]
            elif spec.kind == HISTOGRAM:
                value = {**value, "buckets": dict(value["buckets"])}
            family = out["families"].setdefault(
                name, {"kind": spec.kind, "unit": spec.unit, "instances": {}}
            )
            family["instances"][key] = value
        return out


def _fits(kind: str, value, merged) -> bool:
    """Whether ``value`` is a snapshot value of ``kind`` (a histogram's
    keys and bucket names must be ``merged``'s, the declared ones)."""
    if kind == COUNTER:
        return type(value) is int
    if kind == GAUGE:
        return type(value) in (int, float)
    return (
        type(value) is dict
        and value.keys() == merged.keys()
        and type(value["count"]) is int
        and type(value["sum"]) in (int, float)
        and type(value["buckets"]) is dict
        and value["buckets"].keys() == merged["buckets"].keys()
        and all(type(n) is int for n in value["buckets"].values())
    )
