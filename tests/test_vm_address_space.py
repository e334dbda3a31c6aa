"""Address spaces: mmap layout, munmap detach, fault accounting."""

import pytest

from repro.sim.errors import ConfigError, SegmentationFault
from repro.sim.units import PAGE_SIZE
from repro.vm.address_space import AddressSpace, MMAP_TOP
from repro.vm.vma import Protection


class TestMmap:
    def test_grows_downward(self):
        mm = AddressSpace()
        first = mm.mmap(4 * PAGE_SIZE)
        second = mm.mmap(PAGE_SIZE)
        assert first.end <= MMAP_TOP
        assert second.end == first.start

    def test_length_rounded_up(self):
        mm = AddressSpace()
        vma = mm.mmap(100)
        assert vma.length == PAGE_SIZE

    def test_fixed_address(self):
        mm = AddressSpace()
        vma = mm.mmap(PAGE_SIZE, fixed_addr=0x2000_0000)
        assert vma.start == 0x2000_0000

    def test_overlap_rejected(self):
        mm = AddressSpace()
        mm.mmap(PAGE_SIZE, fixed_addr=0x2000_0000)
        with pytest.raises(ConfigError):
            mm.mmap(PAGE_SIZE, fixed_addr=0x2000_0000)

    def test_zero_length_rejected(self):
        with pytest.raises(ConfigError):
            AddressSpace().mmap(0)

    def test_vmas_sorted(self):
        mm = AddressSpace()
        mm.mmap(PAGE_SIZE, fixed_addr=0x3000_0000)
        mm.mmap(PAGE_SIZE, fixed_addr=0x1000_0000)
        starts = [v.start for v in mm.vmas]
        assert starts == sorted(starts)

    def test_virtual_pages(self):
        mm = AddressSpace()
        mm.mmap(3 * PAGE_SIZE)
        mm.mmap(2 * PAGE_SIZE)
        assert mm.virtual_pages() == 5


class TestFaultBookkeeping:
    def test_attach_frame(self):
        mm = AddressSpace()
        vma = mm.mmap(2 * PAGE_SIZE)
        mm.attach_frame(vma.start, pfn=7)
        assert mm.rss_pages == 1
        assert mm.page_table.translate(vma.start) == 7 << 12

    def test_attach_outside_vma_faults(self):
        mm = AddressSpace()
        with pytest.raises(SegmentationFault):
            mm.attach_frame(0x5000_0000, pfn=1)

    def test_readonly_vma_maps_readonly(self):
        mm = AddressSpace()
        vma = mm.mmap(PAGE_SIZE, prot=Protection.READ)
        mm.attach_frame(vma.start, pfn=3)
        with pytest.raises(SegmentationFault):
            mm.page_table.translate(vma.start, write=True)

    def test_total_faults_counted(self):
        mm = AddressSpace()
        vma = mm.mmap(2 * PAGE_SIZE)
        mm.attach_frame(vma.start, 1)
        mm.attach_frame(vma.start + PAGE_SIZE, 2)
        assert mm.total_faults == 2


class TestMunmap:
    def test_detaches_populated_pages_only(self):
        mm = AddressSpace()
        vma = mm.mmap(4 * PAGE_SIZE)
        mm.attach_frame(vma.start, 10)
        mm.attach_frame(vma.start + 2 * PAGE_SIZE, 11)
        detached = mm.munmap(vma.start, 4 * PAGE_SIZE)
        assert sorted(pfn for _, pfn in detached) == [10, 11]
        assert mm.rss_pages == 0
        assert mm.vmas == ()

    def test_partial_munmap_splits_vma(self):
        mm = AddressSpace()
        vma = mm.mmap(4 * PAGE_SIZE)
        mm.munmap(vma.start + PAGE_SIZE, PAGE_SIZE)
        spans = [(v.start, v.end) for v in mm.vmas]
        assert spans == [
            (vma.start, vma.start + PAGE_SIZE),
            (vma.start + 2 * PAGE_SIZE, vma.end),
        ]

    def test_munmap_unmapped_range_faults(self):
        mm = AddressSpace()
        with pytest.raises(SegmentationFault):
            mm.munmap(0x4000_0000, PAGE_SIZE)

    def test_munmap_bad_length(self):
        mm = AddressSpace()
        mm.mmap(PAGE_SIZE)
        with pytest.raises(ConfigError):
            mm.munmap(0x1000, 0)

    def test_munmap_spanning_two_vmas(self):
        mm = AddressSpace()
        a = mm.mmap(2 * PAGE_SIZE, fixed_addr=0x1000_0000)
        b = mm.mmap(2 * PAGE_SIZE, fixed_addr=0x1000_0000 + 2 * PAGE_SIZE)
        mm.attach_frame(a.start + PAGE_SIZE, 5)
        mm.attach_frame(b.start, 6)
        detached = mm.munmap(a.start + PAGE_SIZE, 2 * PAGE_SIZE)
        assert sorted(pfn for _, pfn in detached) == [5, 6]
        spans = [(v.start, v.end) for v in mm.vmas]
        assert spans == [
            (a.start, a.start + PAGE_SIZE),
            (b.start + PAGE_SIZE, b.end),
        ]


class TestLookups:
    def test_resident_pfns(self):
        mm = AddressSpace()
        vma = mm.mmap(2 * PAGE_SIZE)
        mm.attach_frame(vma.start, 9)
        mm.attach_frame(vma.start + PAGE_SIZE, 4)
        assert mm.resident_pfns() == [9, 4]

    def test_vma_at(self):
        mm = AddressSpace()
        vma = mm.mmap(PAGE_SIZE)
        assert mm.vma_at(vma.start) == vma
        assert mm.vma_at(vma.start - 1) is None
