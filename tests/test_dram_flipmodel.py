"""Weak-cell population model: determinism, density, validation."""

import pytest

from repro.dram.flipmodel import FlipModelConfig, WeakCell, WeakCellMap
from repro.dram.geometry import DRAMGeometry
from repro.sim.errors import ConfigError
from repro.sim.rng import RngStreams

GEO = DRAMGeometry.small()


def make_map(config=None, seed=0):
    return WeakCellMap(GEO, config or FlipModelConfig(), RngStreams(seed))


def weak_cells_in_bank0(cell_map, rows):
    """Weak cells over the first ``rows`` rows of bank 0."""
    return sum(len(cell_map.cells_in_row(0, row)) for row in range(rows))


class TestWeakCell:
    def test_byte_and_bit_decomposition(self):
        cell = WeakCell(bit_index=0x123 * 8 + 5, threshold=100_000, true_cell=True)
        assert cell.byte_offset == 0x123
        assert cell.bit_in_byte == 5

    def test_true_cell_direction(self):
        cell = WeakCell(bit_index=0, threshold=1, true_cell=True)
        assert cell.charged_value == 1
        assert cell.flipped_value == 0
        assert "1->0" in str(cell)

    def test_anti_cell_direction(self):
        cell = WeakCell(bit_index=0, threshold=1, true_cell=False)
        assert cell.charged_value == 0
        assert cell.flipped_value == 1


class TestDeterminism:
    def test_same_seed_same_population(self):
        a = make_map(seed=1).cells_in_row(0, 10)
        b = make_map(seed=1).cells_in_row(0, 10)
        assert a == b

    def test_memoised_identity(self):
        cell_map = make_map()
        assert cell_map.cells_in_row(0, 10) is cell_map.cells_in_row(0, 10)

    def test_different_rows_differ(self):
        cell_map = make_map(FlipModelConfig(weak_cells_per_row_mean=5.0), seed=2)
        rows = {cell_map.cells_in_row(0, r) for r in range(20)}
        assert len(rows) > 1

    def test_different_seeds_differ(self):
        config = FlipModelConfig(weak_cells_per_row_mean=5.0)
        cells_a = [make_map(config, seed=1).cells_in_row(0, r) for r in range(50)]
        cells_b = [make_map(config, seed=2).cells_in_row(0, r) for r in range(50)]
        assert cells_a != cells_b


class TestDensity:
    def test_invulnerable_has_no_cells(self):
        cell_map = make_map(FlipModelConfig.invulnerable())
        assert weak_cells_in_bank0(cell_map, 200) == 0

    def test_density_scales(self):
        sparse = make_map(FlipModelConfig(weak_cells_per_row_mean=0.05), seed=3)
        dense = make_map(FlipModelConfig(weak_cells_per_row_mean=2.0), seed=3)
        rows = GEO.rows_per_bank
        assert weak_cells_in_bank0(dense, rows) > weak_cells_in_bank0(sparse, rows)

    def test_poisson_mean_roughly_matches(self):
        mean = 1.0
        cell_map = make_map(FlipModelConfig(weak_cells_per_row_mean=mean), seed=4)
        rows = GEO.rows_per_bank
        count = weak_cells_in_bank0(cell_map, rows)
        assert 0.7 * mean * rows < count < 1.3 * mean * rows


class TestThresholds:
    def test_thresholds_clipped(self):
        config = FlipModelConfig(
            weak_cells_per_row_mean=3.0,
            threshold_mean=100_000,
            threshold_sd=500_000,  # huge spread to force clipping
            threshold_min=60_000,
            threshold_max=200_000,
        )
        cell_map = make_map(config, seed=5)
        for row in range(100):
            for cell in cell_map.cells_in_row(0, row):
                assert 60_000 <= cell.threshold <= 200_000

    def test_cells_sorted_by_bit_index(self):
        cell_map = make_map(FlipModelConfig(weak_cells_per_row_mean=4.0), seed=7)
        for row in range(30):
            cells = cell_map.cells_in_row(0, row)
            indices = [c.bit_index for c in cells]
            assert indices == sorted(indices)
            assert len(set(indices)) == len(indices)  # no duplicates


class TestValidation:
    def test_negative_density(self):
        with pytest.raises(ConfigError):
            FlipModelConfig(weak_cells_per_row_mean=-1)

    def test_inverted_threshold_bounds(self):
        with pytest.raises(ConfigError):
            FlipModelConfig(threshold_min=100, threshold_max=50)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            FlipModelConfig(true_cell_fraction=1.5)

    def test_d2_coupling_cannot_exceed_adjacent(self):
        with pytest.raises(ConfigError):
            FlipModelConfig(coupling_adjacent=0.1, coupling_distance2=0.5)

    def test_row_bounds(self):
        cell_map = make_map()
        with pytest.raises(ConfigError):
            cell_map.cells_in_row(GEO.total_banks, 0)
        with pytest.raises(ConfigError):
            cell_map.cells_in_row(0, GEO.rows_per_bank)


class TestRowPopulation:
    def test_columns_match_cells_on_seeded_rows(self):
        cell_map = make_map(FlipModelConfig.highly_vulnerable(), seed=7)
        populated = 0
        for row in range(300):
            cells = cell_map.cells_in_row(0, row)
            population = cell_map.row_population(0, row)
            if not cells:
                assert population is None
                continue
            populated += 1
            assert population.bit_index.tolist() == [c.bit_index for c in cells]
            assert population.threshold.tolist() == [c.threshold for c in cells]
            assert population.true_cell.tolist() == [c.true_cell for c in cells]
            assert population.byte_offset.tolist() == [c.byte_offset for c in cells]
            assert population.bit_in_byte.tolist() == [c.bit_in_byte for c in cells]
            assert population.charged.tolist() == [c.charged_value for c in cells]
            assert population.min_threshold == min(c.threshold for c in cells)
            assert len(population) == len(cells)
        assert populated > 10  # non-vacuous: the sweep hit real populations

    def test_population_is_memoized(self):
        cell_map = make_map(FlipModelConfig.highly_vulnerable(), seed=7)
        a = cell_map.row_population(0, 5)
        assert cell_map.row_population(0, 5) is a
