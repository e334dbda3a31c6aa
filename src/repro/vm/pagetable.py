"""Four-level x86-64 page tables.

Virtual addresses are the canonical 48-bit kind: four 9-bit indices (PML4,
PDPT, PD, PT) over a 12-bit page offset.  Tables are dictionaries — sparse,
like real tables allocated on demand — and entries carry the present /
writable / user bits the simulated kernel checks on access.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.errors import ConfigError, SegmentationFault
from repro.sim.units import PAGE_SHIFT

_LEVEL_BITS = 9
_LEVELS = 4
_INDEX_MASK = (1 << _LEVEL_BITS) - 1
VA_BITS = PAGE_SHIFT + _LEVELS * _LEVEL_BITS  # 48


def split_va(va: int) -> tuple[int, int, int, int, int]:
    """Split a canonical VA into (pml4, pdpt, pd, pt, offset) indices."""
    check_canonical(va)
    offset = va & ((1 << PAGE_SHIFT) - 1)
    page = va >> PAGE_SHIFT
    pt = page & _INDEX_MASK
    pd = (page >> _LEVEL_BITS) & _INDEX_MASK
    pdpt = (page >> (2 * _LEVEL_BITS)) & _INDEX_MASK
    pml4 = (page >> (3 * _LEVEL_BITS)) & _INDEX_MASK
    return pml4, pdpt, pd, pt, offset


def check_canonical(va: int) -> None:
    """Reject addresses outside the 48-bit user range."""
    if not 0 <= va < (1 << VA_BITS):
        raise ConfigError(f"virtual address {va:#x} not canonical (48-bit user)")


@dataclass
class PageTableEntry:
    """A leaf PTE: physical frame number plus permission bits."""

    pfn: int
    writable: bool = True
    user: bool = True
    accessed: bool = False
    dirty: bool = False


class PageTable:
    """One address space's four-level translation tree."""

    def __init__(self) -> None:
        self._root: dict[int, dict] = {}
        self.mapped_pages = 0

    # -- mapping -----------------------------------------------------------

    def map(self, va: int, pfn: int, writable: bool = True, user: bool = True) -> None:
        """Install a leaf mapping for the page containing ``va``."""
        pml4, pdpt, pd, pt, _ = split_va(va)
        if pfn < 0:
            raise ConfigError(f"pfn must be non-negative, got {pfn}")
        level3 = self._root.setdefault(pml4, {})
        level2 = level3.setdefault(pdpt, {})
        level1 = level2.setdefault(pd, {})
        if pt in level1:
            raise ConfigError(f"va {va:#x} already mapped (pfn {level1[pt].pfn:#x})")
        level1[pt] = PageTableEntry(pfn=pfn, writable=writable, user=user)
        self.mapped_pages += 1

    def unmap(self, va: int) -> int:
        """Remove the mapping of the page containing ``va``; returns its pfn."""
        pml4, pdpt, pd, pt, _ = split_va(va)
        try:
            level1 = self._root[pml4][pdpt][pd]
            entry = level1.pop(pt)
        except KeyError:
            raise SegmentationFault(f"unmap of unmapped va {va:#x}", address=va) from None
        self.mapped_pages -= 1
        # Prune empty intermediate tables, like free_pgtables would.
        if not level1:
            del self._root[pml4][pdpt][pd]
            if not self._root[pml4][pdpt]:
                del self._root[pml4][pdpt]
                if not self._root[pml4]:
                    del self._root[pml4]
        return entry.pfn

    # -- lookup -------------------------------------------------------------

    def entry(self, va: int) -> PageTableEntry | None:
        """The leaf PTE for ``va``, or None if not present."""
        pml4, pdpt, pd, pt, _ = split_va(va)
        try:
            return self._root[pml4][pdpt][pd][pt]
        except KeyError:
            return None

    def entries(self, va: int, count: int) -> list[PageTableEntry]:
        """Leaf PTEs of up to ``count`` pages from ``va``, stopping at the first gap.

        One walk per page-table page instead of one per page; it sets no
        accessed or dirty bits (the caller sets them on the pages it uses).
        """
        out: list[PageTableEntry] = []
        first = va >> PAGE_SHIFT
        table_key = None
        level1: dict = {}
        for page in range(first, first + count):
            key = page >> _LEVEL_BITS
            if key != table_key:
                check_canonical(page << PAGE_SHIFT)
                table_key = key
                level1 = (
                    self._root.get((key >> (2 * _LEVEL_BITS)) & _INDEX_MASK, {})
                    .get((key >> _LEVEL_BITS) & _INDEX_MASK, {})
                    .get(key & _INDEX_MASK, {})
                )
            entry = level1.get(page & _INDEX_MASK)
            if entry is None:
                break
            out.append(entry)
        return out

    def translate(self, va: int, write: bool = False) -> int:
        """Translate ``va`` to a physical byte address.

        Sets the accessed (and, for writes, dirty) bits like the MMU would.
        Raises :class:`SegmentationFault` when unmapped, and also when a
        write hits a read-only mapping.
        """
        entry = self.entry(va)
        if entry is None:
            raise SegmentationFault(f"no mapping for va {va:#x}", address=va)
        if write and not entry.writable:
            raise SegmentationFault(f"write to read-only page at va {va:#x}", address=va)
        entry.accessed = True
        if write:
            entry.dirty = True
        return (entry.pfn << PAGE_SHIFT) | (va & ((1 << PAGE_SHIFT) - 1))

    def is_mapped(self, va: int) -> bool:
        """True if the page containing ``va`` has a present PTE."""
        return self.entry(va) is not None

    def walk(self):
        """Yield (page-aligned va, PageTableEntry) for every mapping."""
        for pml4, level3 in sorted(self._root.items()):
            for pdpt, level2 in sorted(level3.items()):
                for pd, level1 in sorted(level2.items()):
                    for pt, entry in sorted(level1.items()):
                        va = (
                            ((pml4 << (3 * _LEVEL_BITS))
                             | (pdpt << (2 * _LEVEL_BITS))
                             | (pd << _LEVEL_BITS)
                             | pt)
                            << PAGE_SHIFT
                        )
                        yield va, entry

    def __len__(self) -> int:
        return self.mapped_pages
