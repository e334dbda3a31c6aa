"""Pagemap interface and its CAP_SYS_ADMIN gate (the attack's premise)."""

from repro.os.capabilities import CapabilitySet
from repro.sim.units import PAGE_SIZE
from repro.vm.address_space import AddressSpace
from repro.vm.pagemap import Pagemap


def make_mm_with_page(pfn=123):
    mm = AddressSpace()
    vma = mm.mmap(2 * PAGE_SIZE)
    mm.attach_frame(vma.start, pfn)
    return mm, vma.start


class TestPrivilegedReader:
    def test_sees_pfn(self):
        mm, va = make_mm_with_page(pfn=123)
        entry = Pagemap(mm, CapabilitySet.root()).read(va)
        assert entry.present
        assert entry.pfn == 123
        assert entry.pfn_visible

    def test_absent_page(self):
        mm, va = make_mm_with_page()
        entry = Pagemap(mm, CapabilitySet.root()).read(va + PAGE_SIZE)
        assert not entry.present
        assert entry.pfn == 0


class TestUnprivilegedReader:
    def test_pfn_zeroed_since_linux_4_0(self):
        mm, va = make_mm_with_page(pfn=123)
        entry = Pagemap(mm, CapabilitySet.unprivileged()).read(va)
        assert entry.present
        assert entry.pfn == 0
        assert not entry.pfn_visible

    def test_presence_still_visible(self):
        """Unprivileged readers still learn residency, just not location."""
        mm, va = make_mm_with_page()
        pagemap = Pagemap(mm, CapabilitySet.unprivileged())
        assert pagemap.read(va).present
        assert not pagemap.read(va + PAGE_SIZE).present
