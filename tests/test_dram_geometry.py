"""DRAM geometry arithmetic and validation."""

import pytest

from repro.dram.geometry import DRAMAddress, DRAMGeometry
from repro.sim.errors import ConfigError
from repro.sim.units import KIB, MIB


class TestDerivedSizes:
    def test_default_is_256_mib(self):
        assert DRAMGeometry.default().total_bytes == 256 * MIB

    def test_small_is_64_mib(self):
        assert DRAMGeometry.small().total_bytes == 64 * MIB

    def test_bank_bytes(self):
        geo = DRAMGeometry(rows_per_bank=1024, row_bytes=8 * KIB)
        assert geo.bank_bytes == 8 * MIB

    def test_total_banks(self):
        geo = DRAMGeometry(channels=2, ranks_per_channel=2, banks_per_rank=8)
        assert geo.total_banks == 32

    def test_row_bits(self):
        assert DRAMGeometry().row_bits == 8 * KIB * 8


class TestValidation:
    @pytest.mark.parametrize("field", ["channels", "ranks_per_channel", "banks_per_rank", "rows_per_bank", "row_bytes"])
    def test_non_power_of_two_rejected(self, field):
        with pytest.raises(ConfigError):
            DRAMGeometry(**{field: 3 * KIB if field == "row_bytes" else 3})

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            DRAMGeometry(banks_per_rank=0)

    def test_tiny_rows_rejected(self):
        with pytest.raises(ConfigError):
            DRAMGeometry(row_bytes=512)

    def test_validate_bank_bounds(self):
        geo = DRAMGeometry()
        geo.validate_bank(0, 0, 7)
        with pytest.raises(ConfigError):
            geo.validate_bank(0, 0, 8)
        with pytest.raises(ConfigError):
            geo.validate_bank(1, 0, 0)

    def test_validate_address(self):
        geo = DRAMGeometry()
        geo.validate_address(DRAMAddress(0, 0, 0, 0, 0))
        with pytest.raises(ConfigError):
            geo.validate_address(DRAMAddress(0, 0, 0, geo.rows_per_bank, 0))
        with pytest.raises(ConfigError):
            geo.validate_address(DRAMAddress(0, 0, 0, 0, geo.row_bytes))


class TestFlatBankIndex:
    def test_round_trip_all(self):
        geo = DRAMGeometry(channels=2, ranks_per_channel=2, banks_per_rank=8)
        flats = [
            geo.flat_bank_index(ch, rk, ba)
            for ch in range(2)
            for rk in range(2)
            for ba in range(8)
        ]
        assert sorted(flats) == list(range(geo.total_banks))


class TestDRAMAddress:
    def test_bank_key(self):
        addr = DRAMAddress(1, 0, 3, 100, 5)
        assert addr.bank_key() == (1, 0, 3)

    def test_str_contains_coordinates(self):
        text = str(DRAMAddress(0, 0, 2, 0x10, 0x20))
        assert "ba2" in text and "0x10" in text

    def test_str_of_geometry(self):
        assert "256 MiB" in str(DRAMGeometry.default())
