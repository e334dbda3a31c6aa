"""Units and alignment helpers."""

import pytest

from repro.sim import units


class TestConstants:
    def test_page_size_is_4k(self):
        assert units.PAGE_SIZE == 4096
        assert 1 << units.PAGE_SHIFT == units.PAGE_SIZE

    def test_binary_prefixes(self):
        assert units.MIB == 1024 * units.KIB
        assert units.GIB == 1024 * units.MIB

    def test_time_units(self):
        assert units.US == 1000
        assert units.MS == 1_000_000


class TestAlignment:
    def test_pages_for_bytes_rounds_up(self):
        assert units.pages_for_bytes(1) == 1
        assert units.pages_for_bytes(4096) == 1
        assert units.pages_for_bytes(4097) == 2
        assert units.pages_for_bytes(0) == 0

    def test_pages_for_bytes_negative(self):
        with pytest.raises(ValueError):
            units.pages_for_bytes(-1)

    def test_is_page_aligned(self):
        assert units.is_page_aligned(0)
        assert units.is_page_aligned(8192)
        assert not units.is_page_aligned(8193)

    def test_align_down(self):
        assert units.page_align_down(4097) == 4096
        assert units.page_align_down(4096) == 4096
        assert units.page_align_down(100) == 0

    def test_align_up(self):
        assert units.page_align_up(4097) == 8192
        assert units.page_align_up(4096) == 4096
        assert units.page_align_up(0) == 0

    def test_round_trip(self):
        for addr in (0, 1, 4095, 4096, 123456):
            down = units.page_align_down(addr)
            up = units.page_align_up(addr)
            assert down <= addr <= up
            assert units.is_page_aligned(down)
            assert units.is_page_aligned(up)
