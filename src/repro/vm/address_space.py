"""Per-process address spaces (``mm_struct``).

An address space owns a sorted set of VMAs and a page table.  It is pure
bookkeeping: the policy side of demand paging (which zone, which CPU's
page frame cache) lives in :class:`repro.os.kernel.Kernel`, which calls
back into this class to install and remove translations.

``mmap`` here reserves virtual space only; physical frames are attached
later through :meth:`attach_frame` when the kernel handles the first-touch
fault.  ``munmap`` detaches and returns the frames that were actually
populated, so the kernel can give them back to the allocator — in the
attack those are exactly the frames that land on the attacker CPU's page
frame cache.
"""

from __future__ import annotations

from repro.sim.errors import ConfigError, SegmentationFault
from repro.sim.units import PAGE_SIZE, page_align_up
from repro.vm.pagetable import PageTable
from repro.vm.vma import Protection, VMA, VmaFlags

# Default top of the downward-growing mmap region (just a convention; any
# canonical address works).
MMAP_TOP = 0x7FFF_0000_0000


class AddressSpace:
    """VMAs + page table + RSS accounting for one task."""

    def __init__(self, mmap_top: int = MMAP_TOP):
        self.page_table = PageTable()
        self._vmas: list[VMA] = []  # kept sorted by start
        self._mmap_cursor = mmap_top
        self.rss_pages = 0  # resident (frame-backed) pages
        self.total_faults = 0

    # -- VMA bookkeeping -----------------------------------------------------

    @property
    def vmas(self) -> tuple[VMA, ...]:
        """Current areas, sorted by start address."""
        return tuple(self._vmas)

    def vma_at(self, va: int) -> VMA | None:
        """The VMA containing ``va``, or None."""
        for vma in self._vmas:
            if vma.contains(va):
                return vma
        return None

    def _insert_vma(self, vma: VMA) -> None:
        for existing in self._vmas:
            if existing.overlaps(vma.start, vma.end):
                raise ConfigError(f"VMA {vma} overlaps existing {existing}")
        self._vmas.append(vma)
        self._vmas.sort(key=lambda v: v.start)

    def virtual_pages(self) -> int:
        """Total pages reserved across all VMAs (VSZ)."""
        return sum(vma.pages for vma in self._vmas)

    # -- mmap / munmap ------------------------------------------------------------

    def mmap(
        self,
        length: int,
        prot: Protection = Protection.rw(),
        flags: VmaFlags = VmaFlags.ANONYMOUS,
        fixed_addr: int | None = None,
        name: str = "anon",
    ) -> VMA:
        """Reserve ``length`` bytes of virtual space; returns the new VMA.

        Without ``fixed_addr`` the area is carved downward from the mmap
        cursor, like the kernel's top-down mmap layout.
        """
        if length <= 0:
            raise ConfigError(f"mmap length must be positive, got {length}")
        length = page_align_up(length)
        if fixed_addr is not None:
            start = fixed_addr
        else:
            start = self._mmap_cursor - length
        vma = VMA(start=start, end=start + length, prot=prot, flags=flags, name=name)
        self._insert_vma(vma)
        if fixed_addr is None:
            self._mmap_cursor = start
        return vma

    def munmap(self, addr: int, length: int) -> list[tuple[int, int]]:
        """Release [addr, addr+length); returns detached (va, pfn) pairs.

        Only the pages that were actually populated appear in the result —
        the caller (the kernel) frees those frames to the allocator.
        Unmapping a range with no VMA at all is an error, matching the
        spirit of the attack protocol where every munmap is deliberate.
        """
        if length <= 0:
            raise ConfigError(f"munmap length must be positive, got {length}")
        end = addr + page_align_up(length)
        touched = [vma for vma in self._vmas if vma.overlaps(addr, end)]
        if not touched:
            raise SegmentationFault(
                f"munmap of unmapped range [{addr:#x}, {end:#x})", address=addr
            )
        detached: list[tuple[int, int]] = []
        for vma in touched:
            self._vmas.remove(vma)
            for remnant in vma.split(addr, end):
                self._vmas.append(remnant)
            lo = max(vma.start, addr)
            hi = min(vma.end, end)
            for va in range(lo, hi, PAGE_SIZE):
                if self.page_table.is_mapped(va):
                    pfn = self.page_table.unmap(va)
                    self.rss_pages -= 1
                    detached.append((va, pfn))
        self._vmas.sort(key=lambda v: v.start)
        return detached

    # -- demand paging hooks ------------------------------------------------------

    def attach_frame(self, va: int, pfn: int) -> None:
        """Install the translation for a freshly allocated frame."""
        vma = self.vma_at(va)
        if vma is None:
            raise SegmentationFault(f"fault outside any VMA at {va:#x}", address=va)
        writable = bool(vma.prot & Protection.WRITE)
        self.page_table.map(va & ~(PAGE_SIZE - 1), pfn, writable=writable)
        self.rss_pages += 1
        self.total_faults += 1

    def resident_pfns(self) -> list[int]:
        """PFNs of every resident page, in VA order."""
        return [entry.pfn for _, entry in self.page_table.walk()]

    def __repr__(self) -> str:
        return (
            f"AddressSpace(vmas={len(self._vmas)}, "
            f"vsz={self.virtual_pages()}p, rss={self.rss_pages}p)"
        )
