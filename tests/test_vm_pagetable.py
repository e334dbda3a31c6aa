"""Page table mapping, translation and permissions.

The flat table (one packed int per page) is checked against the four-level
tree it replaced, :class:`tests.pagetable_reference.ReferencePageTable`,
over random operation sequences in :class:`TestFlatMatchesFourLevelTree`.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.os.capabilities import CapabilitySet
from repro.sim.errors import ConfigError, SegmentationFault
from repro.sim.units import PAGE_SIZE
from repro.vm.pagemap import Pagemap
from repro.vm.pagetable import PageTable, VA_BITS, check_canonical, split_va
from tests.pagetable_reference import ReferencePageTable

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

    def test_last_unmap_leaves_an_empty_table(self):
        table = PageTable()
        table.map(VA, 1)
        table.unmap(VA)
        assert len(table) == 0
        assert list(table.walk()) == []
        table.map(VA, 2)
        assert table.translate(VA) == 2 << 12


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
        entry = table.entry(VA)
        assert entry.accessed and not entry.dirty
        table.translate(VA, write=True)
        assert table.entry(VA).dirty

    def test_entries_are_values_read_at_one_instant(self):
        table = PageTable()
        table.map(VA, pfn=1)
        before = table.entry(VA)
        table.translate(VA, write=True)
        assert not before.accessed and not before.dirty
        with pytest.raises(AttributeError):
            before.dirty = False

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
    """Runs of leaf entries, read as frame numbers by :meth:`PageTable.frames`."""

    def test_run_across_a_page_table_page(self):
        """Pages 510..513 cross a 512-page boundary (two last-level tables on x86-64)."""
        table = PageTable()
        base = VA - (VA % (512 * PAGE_SIZE)) + 510 * PAGE_SIZE
        for index in range(4):
            table.map(base + index * PAGE_SIZE, pfn=100 + index)
        assert table.frames(base, 4) == [100, 101, 102, 103]

    def test_stops_at_the_first_gap_and_sets_no_bits(self):
        table = PageTable()
        for index in (0, 1, 3):
            table.map(VA + index * PAGE_SIZE, pfn=index)
        assert table.frames(VA, 4) == [0, 1]
        assert not any(entry.accessed or entry.dirty for _, entry in table.walk())
        assert table.frames(VA + 2 * PAGE_SIZE, 2) == []

    def test_a_store_run_stops_at_the_first_read_only_page(self):
        table = PageTable()
        for index in range(3):
            table.map(VA + index * PAGE_SIZE, pfn=index, writable=index != 1)
        assert table.frames(VA, 3) == [0, 1, 2]
        assert table.frames(VA, 3, write=True) == [0]

    def test_touch_sets_accessed_and_dirty(self):
        table = PageTable()
        for index in range(3):
            table.map(VA + index * PAGE_SIZE, pfn=index)
        table.touch(VA, 1)
        table.touch(VA + PAGE_SIZE, 1, write=True)
        bits = [(entry.accessed, entry.dirty) for _, entry in table.walk()]
        assert bits == [(True, False), (True, True), (False, False)]

    def test_rejects_non_canonical_addresses(self):
        with pytest.raises(ConfigError):
            PageTable().frames(1 << VA_BITS, 1)
        with pytest.raises(ConfigError):
            PageTable().frames(-PAGE_SIZE, 1)

    def test_a_run_to_the_top_of_the_user_range_ends_in_a_config_error(self):
        table = PageTable()
        top = (1 << VA_BITS) - PAGE_SIZE
        table.map(top, pfn=9)
        with pytest.raises(ConfigError):
            table.frames(top, 2)


#: Pages 500..539 of one 512-page-aligned block (runs cross the last-level
#: table boundary at 512), the top two pages of the user range, and two
#: non-canonical addresses.
_BASE = VA - (VA % (512 * PAGE_SIZE))
_VAS = st.one_of(
    st.integers(500, 539).map(lambda page: _BASE + page * PAGE_SIZE),
    st.sampled_from([(1 << VA_BITS) - 2 * PAGE_SIZE, (1 << VA_BITS) - PAGE_SIZE]),
    st.sampled_from([1 << VA_BITS, -PAGE_SIZE]),
).flatmap(lambda va: st.sampled_from([va, va + 0x123]))

_OPS = st.one_of(
    st.tuples(st.just("map"), _VAS, st.integers(-1, 40), st.booleans(), st.booleans()),
    st.tuples(st.just("unmap"), _VAS),
    st.tuples(st.just("translate"), _VAS, st.booleans()),
    st.tuples(st.just("is_mapped"), _VAS),
    st.tuples(st.just("run"), _VAS, st.integers(0, 20), st.booleans(), st.integers(0, 20)),
    st.tuples(st.just("pagemap"), _VAS),
)


def _outcome(call):
    """A call's result, or its exception's type, text and address."""
    try:
        return ("ok", call())
    except (ConfigError, SegmentationFault) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "address", None))


def _reference_run(table, va, count, write):
    """The four-level run as the kernel's stream consumed it: stop at a gap,
    and for a store also at the first read-only page."""
    run = []
    for entry in table.entries(va, count):
        if write and not entry.writable:
            break
        run.append(entry)
    return run


class TestFlatMatchesFourLevelTree:
    """Differential test: every operation agrees with the four-level tree."""

    @staticmethod
    def _walk(table):
        return [
            (va, entry.pfn, entry.writable, entry.user, entry.accessed, entry.dirty)
            for va, entry in table.walk()
        ]

    @given(ops=st.lists(_OPS, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_random_op_sequences(self, ops):
        flat, reference = PageTable(), ReferencePageTable()
        pagemaps = [
            (Pagemap(SimpleNamespace(page_table=flat), caps),
             Pagemap(SimpleNamespace(page_table=reference), caps))
            for caps in (CapabilitySet.root(), CapabilitySet.unprivileged())
        ]
        for op, va, *args in ops:
            if op == "map":
                pfn, writable, user = args
                got = _outcome(lambda: flat.map(va, pfn, writable=writable, user=user))
                want = _outcome(
                    lambda: reference.map(va, pfn, writable=writable, user=user)
                )
            elif op == "unmap":
                got, want = _outcome(lambda: flat.unmap(va)), _outcome(lambda: reference.unmap(va))
            elif op == "translate":
                (write,) = args
                got = _outcome(lambda: flat.translate(va, write=write))
                want = _outcome(lambda: reference.translate(va, write=write))
            elif op == "is_mapped":
                got = _outcome(lambda: flat.is_mapped(va))
                want = _outcome(lambda: reference.is_mapped(va))
            elif op == "run":
                count, write, used = args
                got = _outcome(lambda: flat.frames(va, count, write=write))
                want = _outcome(
                    lambda: [entry.pfn for entry in _reference_run(reference, va, count, write)]
                )
                if got[0] == "ok":
                    used = min(used, len(got[1]))
                    flat.touch(va, used, write=write)
                    for entry in _reference_run(reference, va, count, write)[:used]:
                        entry.accessed = True
                        entry.dirty = entry.dirty or write
            else:
                got = [_outcome(lambda: flat_map.read(va)) for flat_map, _ in pagemaps]
                want = [_outcome(lambda: ref_map.read(va)) for _, ref_map in pagemaps]
            assert got == want, (op, hex(va), args)
            assert len(flat) == len(reference)
            assert self._walk(flat) == self._walk(reference)
