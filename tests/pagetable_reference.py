"""Test-only reference page table: the four-level tree, kept as an oracle.

``repro.vm.pagetable.PageTable`` keeps one packed int per mapped page in a
flat dict.  :class:`ReferencePageTable` is the formulation it replaced: a
PML4 → PDPT → PD → PT tree of dicts whose leaves are mutable entry objects,
with empty intermediate tables pruned on unmap.  It shares only
:func:`split_va` and :func:`check_canonical` with the production table, so
the differential tests in ``tests/test_vm_pagetable.py`` stay independent
checks of the packed format.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.errors import ConfigError, SegmentationFault
from repro.sim.units import PAGE_SHIFT
from repro.vm.pagetable import check_canonical, split_va

_LEVEL_BITS = 9
_INDEX_MASK = (1 << _LEVEL_BITS) - 1


@dataclass
class ReferenceEntry:
    """A mutable leaf PTE: physical frame number plus permission bits."""

    pfn: int
    writable: bool = True
    user: bool = True
    accessed: bool = False
    dirty: bool = False


class ReferencePageTable:
    """One address space's four-level translation tree."""

    def __init__(self) -> None:
        self._root: dict[int, dict] = {}
        self.mapped_pages = 0

    def map(self, va: int, pfn: int, writable: bool = True, user: bool = True) -> None:
        pml4, pdpt, pd, pt, _ = split_va(va)
        if pfn < 0:
            raise ConfigError(f"pfn must be non-negative, got {pfn}")
        level3 = self._root.setdefault(pml4, {})
        level2 = level3.setdefault(pdpt, {})
        level1 = level2.setdefault(pd, {})
        if pt in level1:
            raise ConfigError(f"va {va:#x} already mapped (pfn {level1[pt].pfn:#x})")
        level1[pt] = ReferenceEntry(pfn=pfn, writable=writable, user=user)
        self.mapped_pages += 1

    def unmap(self, va: int) -> int:
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

    def entry(self, va: int) -> ReferenceEntry | None:
        pml4, pdpt, pd, pt, _ = split_va(va)
        try:
            return self._root[pml4][pdpt][pd][pt]
        except KeyError:
            return None

    def entries(self, va: int, count: int) -> list[ReferenceEntry]:
        """Leaf PTEs of up to ``count`` pages from ``va``, stopping at the first gap."""
        out: list[ReferenceEntry] = []
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
        return self.entry(va) is not None

    def walk(self):
        """Yield (page-aligned va, ReferenceEntry) for every mapping, in VA order."""
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
