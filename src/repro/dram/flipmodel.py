"""Per-cell Rowhammer disturbance model.

Kim et al. (ISCA 2014) characterised DRAM disturbance errors as follows, and
these are the properties the model reproduces:

* only a sparse population of cells is disturbable ("weak cells");
* each weak cell has its own activation threshold — the number of aggressor
  activations inside one refresh window needed to flip it (observed minimum
  ~139 K, typical hundreds of thousands);
* a flip discharges the cell toward its resting state: a *true-cell* stores
  charge for logic 1 and flips 1 -> 0, an *anti-cell* flips 0 -> 1; a cell
  only flips when it currently holds its charged value (data-pattern
  dependence);
* errors are strongly concentrated in the rows directly adjacent to the
  aggressor, with a much weaker effect two rows away;
* the weak-cell population is a stable physical property of the module —
  re-hammering the same row flips the same cells.  This is the repeatability
  that Section VI of the paper exploits.

The population is *derived*, not stored: the weak cells of row ``(bank,
row)`` are regenerated on demand from the machine seed, so arbitrarily
large modules cost no memory and the same seed always yields the same
vulnerable-cell map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.geometry import DRAMGeometry
from repro.sim.errors import ConfigError
from repro.sim.rng import RngStreams, derive_seed


@dataclass(frozen=True)
class WeakCell:
    """One disturbable cell inside a row.

    ``bit_index`` addresses the bit inside the row (0 .. row_bits-1);
    ``threshold`` is the aggressor-activation count within one refresh
    window at which the cell flips; ``true_cell`` selects the orientation
    (True: charged = logic 1, flips 1 -> 0; False: charged = logic 0,
    flips 0 -> 1).
    """

    bit_index: int
    threshold: int
    true_cell: bool

    @property
    def byte_offset(self) -> int:
        """Byte offset of the cell within its row."""
        return self.bit_index >> 3

    @property
    def bit_in_byte(self) -> int:
        """Bit position of the cell within its byte (0 = LSB)."""
        return self.bit_index & 7

    @property
    def charged_value(self) -> int:
        """The logic value the cell must hold to be flippable."""
        return 1 if self.true_cell else 0

    @property
    def flipped_value(self) -> int:
        """The logic value the cell holds after a disturbance flip."""
        return 0 if self.true_cell else 1

    def __str__(self) -> str:
        direction = "1->0" if self.true_cell else "0->1"
        return (
            f"WeakCell(byte {self.byte_offset:#x} bit {self.bit_in_byte}, "
            f"threshold {self.threshold}, {direction})"
        )


@dataclass(frozen=True)
class FlipModelConfig:
    """Tunable parameters of the disturbance model.

    ``weak_cells_per_row_mean`` is the Poisson mean of the number of weak
    cells per 8 KiB row.  The default 0.05 corresponds to roughly one weak
    cell per 160 KiB — inside the range Kim et al. report for vulnerable
    modules, and dense enough that templating a 32 MiB buffer finds a few
    hundred flips.

    Thresholds are drawn from a normal distribution clipped to
    ``[threshold_min, threshold_max]``.  ``coupling_adjacent`` /
    ``coupling_distance2`` weight aggressor activations by row distance
    (distance-2 coupling defaults to a small non-zero value so the A2
    ablation can study it).
    """

    weak_cells_per_row_mean: float = 0.05
    threshold_mean: float = 250_000.0
    threshold_sd: float = 80_000.0
    threshold_min: int = 60_000
    threshold_max: int = 1_200_000
    true_cell_fraction: float = 0.5
    coupling_adjacent: float = 1.0
    coupling_distance2: float = 0.02

    def __post_init__(self) -> None:
        if self.weak_cells_per_row_mean < 0:
            raise ConfigError("weak_cells_per_row_mean must be non-negative")
        if self.threshold_min <= 0 or self.threshold_max < self.threshold_min:
            raise ConfigError(
                f"threshold bounds invalid: [{self.threshold_min}, {self.threshold_max}]"
            )
        if not 0.0 <= self.true_cell_fraction <= 1.0:
            raise ConfigError("true_cell_fraction must lie in [0, 1]")
        if self.coupling_adjacent < 0 or self.coupling_distance2 < 0:
            raise ConfigError("coupling factors must be non-negative")
        if self.coupling_distance2 > self.coupling_adjacent:
            raise ConfigError("distance-2 coupling cannot exceed adjacent coupling")

    @classmethod
    def invulnerable(cls) -> "FlipModelConfig":
        """A module with no weak cells at all (for negative controls)."""
        return cls(weak_cells_per_row_mean=0.0)

    @classmethod
    def highly_vulnerable(cls) -> "FlipModelConfig":
        """A worst-case module: dense weak cells with low thresholds."""
        return cls(
            weak_cells_per_row_mean=0.5,
            threshold_mean=150_000.0,
            threshold_sd=50_000.0,
            threshold_min=40_000,
        )


class RowPopulation:
    """Columnar (numpy) view of one row's weak cells, sorted by bit index.

    The controller's hammer loop compares every cell's threshold against the
    disturbance level on each evaluation; holding the population as arrays
    turns that inner loop into one vector compare.  Instances are immutable
    by convention and shared through the :class:`WeakCellMap` memo.
    """

    __slots__ = (
        "bit_index", "threshold", "true_cell",
        "byte_offset", "bit_in_byte", "charged", "min_threshold",
    )

    def __init__(self, cells: tuple[WeakCell, ...]):
        self.bit_index = np.array([c.bit_index for c in cells], dtype=np.int64)
        self.threshold = np.array([c.threshold for c in cells], dtype=np.int64)
        self.true_cell = np.array([c.true_cell for c in cells], dtype=bool)
        self.byte_offset = self.bit_index >> 3
        self.bit_in_byte = self.bit_index & 7
        self.charged = self.true_cell.astype(np.uint8)
        self.min_threshold = int(self.threshold.min())

    def __len__(self) -> int:
        return self.bit_index.size


class WeakCellMap:
    """Deterministic, lazily evaluated weak-cell population of a module.

    ``cells_in_row(flat_bank, row)`` is a pure function of the machine seed
    and the coordinates — calling it twice returns equal populations, and no
    state is retained beyond a bounded memo cache.
    """

    _MEMO_LIMIT = 65536

    def __init__(self, geometry: DRAMGeometry, config: FlipModelConfig, rng: RngStreams):
        self.geometry = geometry
        self.config = config
        # The weak-cell population is a physical property of the module, so
        # it is pinned to the seed the machine was *built* with.  A later
        # RngStreams.reseed() (machine fork) must not re-materialise
        # different hardware.
        self._master_seed = rng.master_seed
        self._memo: dict[tuple[int, int], tuple[WeakCell, ...]] = {}
        self._pop_memo: dict[tuple[int, int], RowPopulation | None] = {}

    def cells_in_row(self, flat_bank: int, row: int) -> tuple[WeakCell, ...]:
        """Weak cells of the given row, sorted by bit index."""
        if not 0 <= flat_bank < self.geometry.total_banks:
            raise ConfigError(f"flat bank {flat_bank} out of range")
        if not 0 <= row < self.geometry.rows_per_bank:
            raise ConfigError(f"row {row} out of range")
        key = (flat_bank, row)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        cells = self._generate(flat_bank, row)
        if len(self._memo) >= self._MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = cells
        return cells

    def row_population(self, flat_bank: int, row: int) -> RowPopulation | None:
        """Columnar view of the row's weak cells, or None for an empty row.

        Derived from (and consistent with) :meth:`cells_in_row`; memoised
        separately so repeated hammer evaluations of the same victim pay no
        per-call array construction.
        """
        key = (flat_bank, row)
        try:
            return self._pop_memo[key]
        except KeyError:
            pass
        cells = self.cells_in_row(flat_bank, row)
        population = RowPopulation(cells) if cells else None
        if len(self._pop_memo) >= self._MEMO_LIMIT:
            self._pop_memo.clear()
        self._pop_memo[key] = population
        return population

    def _generate(self, flat_bank: int, row: int) -> tuple[WeakCell, ...]:
        """Draw the weak cells of ``(flat_bank, row)`` from a fresh generator.

        The generator is seeded with ``derive_seed(build seed,
        "dram.cells/<flat_bank>/<row>")``, where the build seed is the
        machine seed this map was constructed with, so every call for the
        same row draws the same cells, and a later ``RngStreams.reseed``
        changes none of them.
        """
        cfg = self.config
        if cfg.weak_cells_per_row_mean == 0.0:
            return ()
        gen = np.random.default_rng(
            derive_seed(self._master_seed, f"dram.cells/{flat_bank}/{row}")
        )
        count = int(gen.poisson(cfg.weak_cells_per_row_mean))
        if count == 0:
            return ()
        row_bits = self.geometry.row_bits
        bit_indices = gen.choice(row_bits, size=min(count, row_bits), replace=False)
        thresholds = gen.normal(cfg.threshold_mean, cfg.threshold_sd, size=len(bit_indices))
        orientations = gen.random(size=len(bit_indices)) < cfg.true_cell_fraction
        cells = []
        for bit, raw_threshold, is_true in zip(bit_indices, thresholds, orientations):
            threshold = int(min(max(raw_threshold, cfg.threshold_min), cfg.threshold_max))
            cells.append(WeakCell(bit_index=int(bit), threshold=threshold, true_cell=bool(is_true)))
        cells.sort(key=lambda c: c.bit_index)
        return tuple(cells)
