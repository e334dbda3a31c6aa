"""Four-level page table mapping, translation and permissions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.errors import ConfigError, SegmentationFault
from repro.sim.units import PAGE_SIZE
from repro.vm.pagetable import PageTable, VA_BITS, check_canonical, split_va

VA = 0x7FFE_0000_0000


class TestSplitVa:
    def test_offset_extraction(self):
        *_, offset = split_va(VA + 0x123)
        assert offset == 0x123

    def test_canonical_check(self):
        with pytest.raises(ConfigError):
            check_canonical(1 << VA_BITS)
        with pytest.raises(ConfigError):
            check_canonical(-1)

    @given(va=st.integers(min_value=0, max_value=(1 << VA_BITS) - 1))
    @settings(max_examples=100)
    def test_indices_in_range(self, va):
        pml4, pdpt, pd, pt, offset = split_va(va)
        for index in (pml4, pdpt, pd, pt):
            assert 0 <= index < 512
        assert 0 <= offset < PAGE_SIZE

    @given(va=st.integers(min_value=0, max_value=(1 << VA_BITS) - 1))
    @settings(max_examples=100)
    def test_split_is_injective_reconstruction(self, va):
        pml4, pdpt, pd, pt, offset = split_va(va)
        rebuilt = ((((pml4 << 9 | pdpt) << 9 | pd) << 9 | pt) << 12) | offset
        assert rebuilt == va


class TestMapping:
    def test_map_translate(self):
        table = PageTable()
        table.map(VA, pfn=100)
        assert table.translate(VA + 5) == (100 << 12) + 5

    def test_double_map_rejected(self):
        table = PageTable()
        table.map(VA, pfn=1)
        with pytest.raises(ConfigError):
            table.map(VA, pfn=2)

    def test_negative_pfn_rejected(self):
        with pytest.raises(ConfigError):
            PageTable().map(VA, pfn=-1)

    def test_unmap_returns_pfn(self):
        table = PageTable()
        table.map(VA, pfn=55)
        assert table.unmap(VA) == 55
        assert not table.is_mapped(VA)

    def test_unmap_unmapped_faults(self):
        with pytest.raises(SegmentationFault):
            PageTable().unmap(VA)

    def test_mapped_pages_count(self):
        table = PageTable()
        table.map(VA, 1)
        table.map(VA + PAGE_SIZE, 2)
        assert len(table) == 2
        table.unmap(VA)
        assert len(table) == 1

    def test_intermediate_tables_pruned(self):
        table = PageTable()
        table.map(VA, 1)
        table.unmap(VA)
        assert table._root == {}


class TestTranslation:
    def test_unmapped_faults(self):
        with pytest.raises(SegmentationFault) as exc:
            PageTable().translate(VA)
        assert exc.value.address == VA

    def test_write_to_readonly_faults(self):
        table = PageTable()
        table.map(VA, pfn=1, writable=False)
        table.translate(VA)  # read is fine
        with pytest.raises(SegmentationFault):
            table.translate(VA, write=True)

    def test_accessed_and_dirty_bits(self):
        table = PageTable()
        table.map(VA, pfn=1)
        entry = table.entry(VA)
        assert not entry.accessed and not entry.dirty
        table.translate(VA)
        assert entry.accessed and not entry.dirty
        table.translate(VA, write=True)
        assert entry.dirty

    def test_entry_none_when_absent(self):
        assert PageTable().entry(VA) is None


class TestWalk:
    def test_walk_yields_sorted(self):
        table = PageTable()
        vas = [VA + 3 * PAGE_SIZE, VA, VA + PAGE_SIZE]
        for index, va in enumerate(vas):
            table.map(va, pfn=index)
        walked = [va for va, _ in table.walk()]
        assert walked == sorted(vas)

    def test_walk_round_trip(self):
        table = PageTable()
        table.map(VA, pfn=42)
        ((va, entry),) = list(table.walk())
        assert va == VA
        assert entry.pfn == 42


class TestEntries:
    def test_run_across_a_page_table_page(self):
        """Pages 510..513 span two last-level tables; one walk each."""
        table = PageTable()
        base = VA - (VA % (512 * PAGE_SIZE)) + 510 * PAGE_SIZE
        for index in range(4):
            table.map(base + index * PAGE_SIZE, pfn=100 + index)
        assert [entry.pfn for entry in table.entries(base, 4)] == [100, 101, 102, 103]

    def test_stops_at_the_first_gap_and_sets_no_bits(self):
        table = PageTable()
        for index in (0, 1, 3):
            table.map(VA + index * PAGE_SIZE, pfn=index)
        entries = table.entries(VA, 4)
        assert [entry.pfn for entry in entries] == [0, 1]
        assert not any(entry.accessed or entry.dirty for entry in entries)
        assert table.entries(VA + 2 * PAGE_SIZE, 2) == []

    def test_rejects_non_canonical_addresses(self):
        with pytest.raises(ConfigError):
            PageTable().entries(1 << VA_BITS, 1)
