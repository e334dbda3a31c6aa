"""A small physically-indexed CPU cache model.

The original Rowhammer paper's key enabling trick is ``clflush``: without
flushing, the second and later accesses to an aggressor address are served
by the CPU cache and never reach DRAM, so no activations accumulate.  To
make that part of the attack meaningful in simulation, memory accesses run
through this set-associative, LRU, write-through cache:

* a **hit** is served from the cache and produces no DRAM access;
* a **miss** fills the line (evicting the LRU way) and *does* reach DRAM;
* ``clflush(addr)`` evicts the line so the next access misses again.

Only tags are stored — data stays authoritative in
:class:`repro.dram.memory.PhysicalMemory` (write-through, no dirty state),
which is all the attack semantics require.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.sim.errors import ConfigError


@dataclass(frozen=True)
class CpuCacheConfig:
    """Shape of the cache: 64 B lines, 512 sets x 8 ways = 256 KiB default."""

    line_size: int = 64
    sets: int = 512
    ways: int = 8

    def __post_init__(self) -> None:
        for name in ("line_size", "sets"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ConfigError(f"{name} must be a positive power of two, got {value}")
        if self.ways <= 0:
            raise ConfigError(f"ways must be positive, got {self.ways}")

    @property
    def capacity_bytes(self) -> int:
        """Total cache capacity."""
        return self.line_size * self.sets * self.ways

    @property
    def way_stride(self) -> int:
        """Byte distance between consecutive addresses in the same set.

        Two physical addresses that differ by a multiple of this stride map
        to the same cache set — the congruence an eviction set exploits.
        """
        return self.line_size * self.sets


class CpuCache:
    """Set-associative LRU cache over physical line addresses."""

    def __init__(self, config: CpuCacheConfig | None = None):
        self.config = config or CpuCacheConfig()
        # One OrderedDict per set: line_tag -> None, LRU at the front.
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.config.sets)
        ]
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.evictions = 0

    def _locate(self, phys: int) -> tuple[int, int]:
        """Return (set index, line tag) for a physical address."""
        if phys < 0:
            raise ConfigError(f"physical address must be non-negative, got {phys:#x}")
        line = phys // self.config.line_size
        return line % self.config.sets, line

    def set_index(self, phys: int) -> int:
        """The cache set a physical address maps to (public: set-index bits)."""
        return self._locate(phys)[0]

    def access(self, phys: int) -> bool:
        """Access one byte; returns True on hit (no DRAM traffic needed)."""
        set_index, tag = self._locate(phys)
        ways = self._sets[set_index]
        if tag in ways:
            ways.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways[tag] = None
        if len(ways) > self.config.ways:
            ways.popitem(last=False)
            self.evictions += 1
        return False

    def access_run(self, first: int, count: int) -> list[bool]:
        """Access ``count`` consecutive lines from ``first``; per-line hit flags.

        With ``count <= sets`` consecutive lines fall in distinct sets, so
        each set sees exactly one access and the LRU updates cannot interact:
        the flags, the counters and every set's order equal those of
        ``count`` calls of :meth:`access` in address order.
        """
        sets = self.config.sets
        if not 0 < count <= sets:
            raise ConfigError(f"run of {count} lines needs 1..{sets} distinct sets")
        set_index, start = self._locate(first)
        run_sets = self._sets[set_index:set_index + count]
        if len(run_sets) < count:  # the run wraps past the last set
            run_sets += self._sets[:count - len(run_sets)]
        ways_limit = self.config.ways
        flags: list[bool] = []
        evictions = 0
        for ways, tag in zip(run_sets, range(start, start + count)):
            if tag in ways:
                ways.move_to_end(tag)
                flags.append(True)
            else:
                ways[tag] = None
                if len(ways) > ways_limit:
                    ways.popitem(False)
                    evictions += 1
                flags.append(False)
        hits = flags.count(True)
        self.hits += hits
        self.misses += count - hits
        self.evictions += evictions
        return flags

    def flush(self, phys: int) -> bool:
        """``clflush``: evict the line containing ``phys``; True if present."""
        set_index, tag = self._locate(phys)
        ways = self._sets[set_index]
        if tag in ways:
            del ways[tag]
            self.flushes += 1
            return True
        return False

    def contains(self, phys: int) -> bool:
        """True if the line containing ``phys`` is currently cached."""
        set_index, tag = self._locate(phys)
        return tag in self._sets[set_index]

    def flush_all(self) -> None:
        """Invalidate the whole cache (``wbinvd``)."""
        for ways in self._sets:
            ways.clear()

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(ways) for ways in self._sets)

    @property
    def hit_rate(self) -> float:
        """Lifetime hit rate (0.0 when no accesses have happened)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def bind_obs(self, obs) -> None:
        """Publish the ``dram.cache.*`` gauge family.

        Collector-sourced so the per-access hot path stays untouched: the
        counters above are plain ints, read out only at snapshot time.
        """
        metrics = obs.metrics
        hits = metrics.gauge(
            "dram.cache.hits", unit="accesses", help="cache hits served"
        )
        misses = metrics.gauge(
            "dram.cache.misses", unit="accesses", help="cache misses (reached DRAM)"
        )
        evictions = metrics.gauge(
            "dram.cache.evictions", unit="lines", help="LRU capacity evictions"
        )
        hit_rate = metrics.gauge(
            "dram.cache.hit_rate", unit="ratio", help="lifetime hit rate"
        )
        occupancy = metrics.gauge(
            "dram.cache.occupancy", unit="lines", help="valid lines held"
        )

        def _collect() -> None:
            hits.set(self.hits)
            misses.set(self.misses)
            evictions.set(self.evictions)
            hit_rate.set(self.hit_rate)
            occupancy.set(self.occupancy())

        metrics.add_collector(_collect)

    def __repr__(self) -> str:
        return (
            f"CpuCache({self.config.sets}x{self.config.ways} ways, "
            f"hits={self.hits}, misses={self.misses})"
        )
