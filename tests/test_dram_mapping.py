"""Address mapping bijectivity and structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.geometry import DRAMAddress, DRAMGeometry
from repro.dram.mapping import LinearMapping, XorBankMapping, make_mapping
from repro.sim.errors import ConfigError

GEO = DRAMGeometry.small()


@pytest.fixture(params=["linear", "xor"])
def mapping(request):
    return make_mapping(request.param, GEO)


class TestBijectivity:
    @given(phys=st.integers(min_value=0, max_value=GEO.total_bytes - 1))
    @settings(max_examples=200)
    def test_round_trip_linear(self, phys):
        m = LinearMapping(GEO)
        assert m.to_phys(m.to_dram(phys)) == phys

    @given(phys=st.integers(min_value=0, max_value=GEO.total_bytes - 1))
    @settings(max_examples=200)
    def test_round_trip_xor(self, phys):
        m = XorBankMapping(GEO)
        assert m.to_phys(m.to_dram(phys)) == phys

    def test_addresses_in_range(self, mapping):
        for phys in (0, 4096, GEO.total_bytes - 1):
            GEO.validate_address(mapping.to_dram(phys))

    def test_distinct_addresses_distinct_coords(self, mapping):
        coords = {mapping.to_dram(p) for p in range(0, 1 << 16, 997)}
        assert len(coords) == len(range(0, 1 << 16, 997))


class TestVectorForm:
    @given(
        name=st.sampled_from(["linear", "xor"]),
        phys=st.lists(st.integers(0, GEO.total_bytes - 1), max_size=40),
    )
    @settings(max_examples=100)
    def test_bank_rows_equals_to_dram(self, name, phys):
        m = make_mapping(name, GEO)
        channel, rank, bank, row = m.bank_rows(phys)
        expected = [m.to_dram(p) for p in phys]
        assert list(zip(channel.tolist(), rank.tolist(), bank.tolist(), row.tolist())) == [
            (*addr.bank_key(), addr.row) for addr in expected
        ]

    def test_bank_rows_checks_the_range(self, mapping):
        with pytest.raises(ConfigError):
            mapping.bank_rows([0, GEO.total_bytes])


class TestStructure:
    def test_row_stride(self, mapping):
        assert mapping.row_stride() == GEO.banks_per_rank * GEO.row_bytes

    def test_row_is_contiguous(self, mapping):
        """All bytes of one row sit in one contiguous physical run."""
        base = mapping.row_base_phys(0, 0, 0, 5)
        for col in range(0, GEO.row_bytes, 1024):
            addr = mapping.to_dram(base + col)
            assert addr.row == 5 and addr.bank == 0 and addr.col == col

    def test_linear_bank_field_verbatim(self):
        m = LinearMapping(GEO)
        addr = m.to_dram(GEO.row_bytes)  # one row_bytes up = next bank field
        assert addr.bank == 1 and addr.row == 0

    def test_xor_folds_row_into_bank(self):
        m = XorBankMapping(GEO)
        # Same bank field, consecutive rows: actual bank must differ.
        stride = m.row_stride()
        a = m.to_dram(0)
        b = m.to_dram(stride)
        assert b.row == a.row + 1
        assert b.bank == a.bank ^ 1

    def test_xor_same_bank_rows_exist(self):
        """Every bank still holds every row index under the XOR fold."""
        m = XorBankMapping(GEO)
        pa0 = m.to_phys(DRAMAddress(0, 0, 3, 10, 0))
        pa1 = m.to_phys(DRAMAddress(0, 0, 3, 11, 0))
        assert m.to_dram(pa0).bank == m.to_dram(pa1).bank == 3
        assert pa0 != pa1


class TestErrors:
    def test_out_of_range_phys(self, mapping):
        with pytest.raises(ConfigError):
            mapping.to_dram(GEO.total_bytes)
        with pytest.raises(ConfigError):
            mapping.to_dram(-1)

    def test_unknown_mapping_name(self):
        with pytest.raises(ConfigError):
            make_mapping("banana", GEO)

    def test_invalid_dram_address(self, mapping):
        with pytest.raises(ConfigError):
            mapping.to_phys(DRAMAddress(0, 0, 0, GEO.rows_per_bank, 0))
