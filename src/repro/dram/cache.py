"""A small physically-indexed CPU cache model.

The original Rowhammer paper's key enabling trick is ``clflush``: without
flushing, the second and later accesses to an aggressor address are served
by the CPU cache and never reach DRAM, so no activations accumulate.  To
make that part of the attack meaningful in simulation, memory accesses run
through this set-associative, LRU, write-through cache:

* a **hit** is served from the cache and produces no DRAM access;
* a **miss** fills the line (evicting the LRU way) and *does* reach DRAM;
* ``clflush(addr)`` evicts the line so the next access misses again.

Only tags are stored, as a ``(sets, ways)`` numpy matrix with a matching
matrix of LRU stamps, so a page's worth of consecutive lines is one vector
compare (:meth:`CpuCache.access_run`).  Data stays authoritative in
:class:`repro.dram.memory.PhysicalMemory` (write-through, no dirty state),
which is all the attack semantics require.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Set-associative LRU cache over physical line addresses.

    State is two ``(sets, ways)`` int64 matrices: ``_tags`` holds each
    way's line tag and ``_stamps`` the tick of its last access, both -1
    while the way is invalid.  A set's LRU order is its valid ways sorted
    by stamp, and a miss fills the way with the smallest stamp, so an
    invalid way is taken before the least recently used valid one.
    """

    def __init__(self, config: CpuCacheConfig | None = None):
        self.config = config or CpuCacheConfig()
        shape = (self.config.sets, self.config.ways)
        self._tags = np.full(shape, -1, dtype=np.int64)
        self._stamps = np.full(shape, -1, dtype=np.int64)
        self._tick = 0
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
        self._tick += 1
        ways = self._tags[set_index].tolist()
        if tag in ways:
            self._stamps[set_index, ways.index(tag)] = self._tick
            self.hits += 1
            return True
        self.misses += 1
        stamps = self._stamps[set_index]
        way = stamps.argmin()
        if stamps[way] >= 0:
            self.evictions += 1
        self._tags[set_index, way] = tag
        stamps[way] = self._tick
        return False

    def access_run(self, first: int, count: int) -> list[bool]:
        """Access ``count`` consecutive lines from ``first``; per-line hit flags.

        With ``count <= sets`` consecutive lines fall in distinct sets, so
        each set sees exactly one access and the LRU updates cannot interact:
        one tag compare over the run's sets gives every flag, and stamping
        the whole run with one tick leaves each set's order, and the
        counters, equal to those of ``count`` calls of :meth:`access` in
        address order.  A run that wraps past the last set is served as
        two runs.
        """
        sets = self.config.sets
        if not 0 < count <= sets:
            raise ConfigError(f"run of {count} lines needs 1..{sets} distinct sets")
        set_index, start = self._locate(first)
        head = sets - set_index
        if count > head:  # the run wraps past the last set
            return self.access_run(first, head) + self.access_run(
                first + head * self.config.line_size, count - head
            )
        end = set_index + count
        tags, stamps = self._tags[set_index:end], self._stamps[set_index:end]
        lines = np.arange(start, start + count, dtype=np.int64)
        match = tags == lines[:, None]
        hit = match.any(1)
        flags = hit.tolist()
        hits = flags.count(True)
        self._tick += 1
        if hits:
            stamps[match] = self._tick
        if hits < count:
            # Each missing line fills its set's smallest stamp: an invalid
            # way if there is one, else the LRU way, which it evicts.
            victims = stamps.argmin(1) + np.arange(0, count * self.config.ways, self.config.ways)
            if hits:
                miss = ~hit
                victims, lines = victims[miss], lines[miss]
            self.evictions += int(np.count_nonzero(stamps.take(victims) >= 0))
            tags.put(victims, lines)
            stamps.put(victims, self._tick)
        self.hits += hits
        self.misses += count - hits
        return flags

    def access_pages(self, firsts: np.ndarray, count: int) -> int:
        """Serve ``access_run(first, count)`` for each of ``firsts`` while all miss.

        Each run must start on a multiple of ``count`` lines, ``count`` must
        divide ``sets``, and no line may repeat across runs: each run then
        fills one aligned block of ``count`` sets.  Returns how many leading
        runs were served; the next run, if any, would hit and is left to
        :meth:`access_run`.

        Closed form: while only misses occur, the j-th miss in a set fills
        way ``pi[j mod ways]``, where ``pi`` is the set's ways ordered as
        :meth:`access_run`'s ``argmin(stamps)`` picks them: invalid ways by
        index, then valid ways by ascending stamp.  A line cached at the
        start at position ``q`` of ``pi`` is therefore still there when the
        set's k-th access of the stream reaches it iff ``k <= q``; the first
        run with such a line is where the stream stops.  The runs before it
        leave each way holding the last line that filled it, stamped with
        its run's tick (run ``i`` gets ``tick + i + 1``), and evict once per
        miss beyond the set's invalid ways.
        """
        sets, ways = self.config.sets, self.config.ways
        if sets % count or count & (count - 1):
            raise ConfigError(f"runs of {count} lines do not tile {sets} sets")
        starts = np.asarray(firsts, dtype=np.int64) // self.config.line_size
        if np.any(starts % count):
            raise ConfigError(f"runs must start on a multiple of {count} lines")
        runs = starts.size
        shift = count.bit_length() - 1
        frames = starts >> shift
        blocks = frames % (sets // count)
        # occurrence[i]: how many earlier runs filled run i's block.
        order = np.argsort(blocks, kind="stable")
        ranked = blocks[order]
        occurrence = np.empty(runs, dtype=np.int64)
        occurrence[order] = np.arange(runs) - np.searchsorted(ranked, ranked)
        # A frame's lines can only sit in its own block, so a run may hit
        # only if its frame number is among the cached tags' high bits.
        cached = (self._tags >> shift).ravel()
        cached.sort()
        found = cached.take(np.searchsorted(cached, frames), mode="clip") == frames
        if found.any():
            candidates = np.flatnonzero(found)
            lines = starts[candidates, None, None] + np.arange(count)[:, None]
            match = self._tags.reshape(-1, count, ways)[blocks[candidates]] == lines
            run_index, column, way = np.nonzero(match)
            run_index = candidates[run_index]
            set_stamps = self._stamps[blocks[run_index] * count + column]
            stamp = set_stamps[np.arange(way.size), way]
            position = np.count_nonzero(set_stamps < stamp[:, None], axis=1)
            hits = run_index[occurrence[run_index] <= position]
            if hits.size:
                runs = int(hits.min())
                if not runs:
                    return 0
                starts, blocks, occurrence = starts[:runs], blocks[:runs], occurrence[:runs]
        fills = np.bincount(blocks, minlength=sets // count)
        invalid = self._stamps < 0
        if invalid.any():
            set_fills = np.repeat(fills, count)
            self.evictions += int(np.maximum(set_fills - invalid.sum(1), 0).sum())
        else:
            self.evictions += runs * count
        pi = np.argsort(self._stamps, axis=1, kind="stable").ravel()
        # Only each way's last fill survives: a run's lines stay iff fewer
        # than ``ways`` later runs refill its block.
        last = np.flatnonzero(occurrence >= fills[blocks] - ways)
        columns = np.arange(count)
        base = (blocks[last, None] * count + columns) * ways
        slot = base + pi.take(base + (occurrence[last] % ways)[:, None])
        self._tags.ravel().put(slot, starts[last, None] + columns)
        self._stamps.ravel().put(slot, np.repeat(self._tick + 1 + last, count))
        self._tick += runs
        self.misses += runs * count
        return runs

    def flush(self, phys: int) -> bool:
        """``clflush``: evict the line containing ``phys``; True if present."""
        set_index, tag = self._locate(phys)
        ways = self._tags[set_index].tolist()
        if tag in ways:
            way = ways.index(tag)
            self._tags[set_index, way] = -1
            self._stamps[set_index, way] = -1
            self.flushes += 1
            return True
        return False

    def contains(self, phys: int) -> bool:
        """True if the line containing ``phys`` is currently cached."""
        set_index, tag = self._locate(phys)
        return tag in self._tags[set_index].tolist()

    def flush_all(self) -> None:
        """Invalidate the whole cache (``wbinvd``)."""
        self._tags.fill(-1)
        self._stamps.fill(-1)

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return int(np.count_nonzero(self._tags >= 0))

    def lru_order(self) -> list[list[int]]:
        """Each set's valid line tags, least recently used first."""
        return [
            [tag for _, tag in sorted(zip(stamps, tags)) if tag >= 0]
            for stamps, tags in zip(self._stamps.tolist(), self._tags.tolist())
        ]

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
        obs.metrics.add_collector(self._metric_values)

    def _metric_values(self) -> dict:
        return {
            "dram.cache.hits": self.hits,
            "dram.cache.misses": self.misses,
            "dram.cache.evictions": self.evictions,
            "dram.cache.hit_rate": self.hit_rate,
            "dram.cache.occupancy": self.occupancy(),
        }

    def __repr__(self) -> str:
        return (
            f"CpuCache({self.config.sets}x{self.config.ways} ways, "
            f"hits={self.hits}, misses={self.misses})"
        )
