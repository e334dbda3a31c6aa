"""x86-64 page tables, stored flat: one packed int per mapped page.

Virtual addresses are the canonical 48-bit kind: four 9-bit indices (PML4,
PDPT, PD, PT) over a 12-bit page offset.  The simulator never needs the
intermediate levels themselves, only the leaves, so an address space keeps
one ``dict`` from virtual page number to a packed leaf entry laid out like
the hardware's: the frame number above :data:`PAGE_SHIFT`, the permission
and status bits (present, writable, user, accessed, dirty) in the low bits.
Translation is one dict lookup; a snapshot of the table pickles as a flat
dict of ints, which the cyclic GC never traverses.

The packed format is private to this module.  Callers read leaves through
:meth:`PageTable.entry` and :meth:`PageTable.walk`, which build
:class:`PageTableEntry` values on demand, and through
:meth:`PageTable.frames`; they set the accessed and dirty bits through
:meth:`PageTable.translate` and :meth:`PageTable.touch`, like the MMU would.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.errors import ConfigError, SegmentationFault
from repro.sim.units import PAGE_SHIFT

_LEVEL_BITS = 9
_LEVELS = 4
_INDEX_MASK = (1 << _LEVEL_BITS) - 1
VA_BITS = PAGE_SHIFT + _LEVELS * _LEVEL_BITS  # 48
_VA_LIMIT = 1 << VA_BITS
_VPN_LIMIT = _VA_LIMIT >> PAGE_SHIFT
_OFFSET_MASK = (1 << PAGE_SHIFT) - 1

# Leaf bits at their x86-64 positions; the frame number sits above them.
_PRESENT = 1 << 0
_WRITABLE = 1 << 1
_USER = 1 << 2
_ACCESSED = 1 << 5
_DIRTY = 1 << 6


def split_va(va: int) -> tuple[int, int, int, int, int]:
    """Split a canonical VA into (pml4, pdpt, pd, pt, offset) indices."""
    check_canonical(va)
    offset = va & _OFFSET_MASK
    page = va >> PAGE_SHIFT
    pt = page & _INDEX_MASK
    pd = (page >> _LEVEL_BITS) & _INDEX_MASK
    pdpt = (page >> (2 * _LEVEL_BITS)) & _INDEX_MASK
    pml4 = (page >> (3 * _LEVEL_BITS)) & _INDEX_MASK
    return pml4, pdpt, pd, pt, offset


def check_canonical(va: int) -> None:
    """Reject addresses outside the 48-bit user range."""
    if not 0 <= va < _VA_LIMIT:
        raise ConfigError(f"virtual address {va:#x} not canonical (48-bit user)")


@dataclass(frozen=True)
class PageTableEntry:
    """A leaf PTE as read at one instant: frame number plus permission bits.

    A value, not the table's storage: a later translation that sets the
    accessed or dirty bit does not change an entry already read.
    """

    pfn: int
    writable: bool = True
    user: bool = True
    accessed: bool = False
    dirty: bool = False

    @classmethod
    def _unpack(cls, pte: int) -> PageTableEntry:
        return cls(
            pte >> PAGE_SHIFT,
            bool(pte & _WRITABLE),
            bool(pte & _USER),
            bool(pte & _ACCESSED),
            bool(pte & _DIRTY),
        )


class PageTable:
    """One address space's translations: virtual page number → packed leaf."""

    def __init__(self) -> None:
        self._ptes: dict[int, int] = {}

    # -- mapping -----------------------------------------------------------

    def map(self, va: int, pfn: int, writable: bool = True, user: bool = True) -> None:
        """Install a leaf mapping for the page containing ``va``."""
        check_canonical(va)
        if pfn < 0:
            raise ConfigError(f"pfn must be non-negative, got {pfn}")
        vpn = va >> PAGE_SHIFT
        if vpn in self._ptes:
            raise ConfigError(
                f"va {va:#x} already mapped (pfn {self._ptes[vpn] >> PAGE_SHIFT:#x})"
            )
        self._ptes[vpn] = (
            (pfn << PAGE_SHIFT) | _PRESENT | (_WRITABLE if writable else 0) | (_USER if user else 0)
        )

    def unmap(self, va: int) -> int:
        """Remove the mapping of the page containing ``va``; returns its pfn."""
        check_canonical(va)
        pte = self._ptes.pop(va >> PAGE_SHIFT, None)
        if pte is None:
            raise SegmentationFault(f"unmap of unmapped va {va:#x}", address=va)
        return pte >> PAGE_SHIFT

    # -- lookup -------------------------------------------------------------

    def entry(self, va: int) -> PageTableEntry | None:
        """The leaf PTE for ``va``, or None if not present."""
        check_canonical(va)
        pte = self._ptes.get(va >> PAGE_SHIFT)
        return None if pte is None else PageTableEntry._unpack(pte)

    def frames(self, va: int, count: int, *, write: bool = False) -> list[int]:
        """PFNs of up to ``count`` pages from ``va``, stopping at the first gap.

        With ``write`` the run also stops at the first read-only page.  It
        sets no accessed or dirty bits (the caller marks the pages it uses
        with :meth:`touch`).
        """
        ptes = self._ptes
        need = _PRESENT | (_WRITABLE if write else 0)
        out: list[int] = []
        first = va >> PAGE_SHIFT
        for vpn in range(first, first + count):
            pte = ptes.get(vpn)
            if pte is None:
                # Every mapped page is canonical, so only a miss can be
                # outside the user range: that is the caller's error.
                check_canonical(vpn << PAGE_SHIFT)
                break
            if pte & need != need:
                # A store run ends at a read-only page, but a gapless run
                # that would reach past the user range is still an error.
                if first + count > _VPN_LIMIT and all(
                    page in ptes for page in range(vpn, _VPN_LIMIT)
                ):
                    check_canonical(_VA_LIMIT)
                break
            out.append(pte >> PAGE_SHIFT)
        return out

    def touch(self, va: int, count: int, *, write: bool = False) -> None:
        """Set the accessed (and, with ``write``, dirty) bits of ``count`` mapped pages."""
        ptes = self._ptes
        bits = _ACCESSED | (_DIRTY if write else 0)
        first = va >> PAGE_SHIFT
        for vpn in range(first, first + count):
            ptes[vpn] |= bits

    def translate(self, va: int, write: bool = False) -> int:
        """Translate ``va`` to a physical byte address.

        Sets the accessed (and, for writes, dirty) bits like the MMU would.
        Raises :class:`SegmentationFault` when unmapped, and also when a
        write hits a read-only mapping.
        """
        if not 0 <= va < _VA_LIMIT:
            check_canonical(va)
        vpn = va >> PAGE_SHIFT
        pte = self._ptes.get(vpn)
        if pte is None:
            raise SegmentationFault(f"no mapping for va {va:#x}", address=va)
        if write:
            if not pte & _WRITABLE:
                raise SegmentationFault(f"write to read-only page at va {va:#x}", address=va)
            self._ptes[vpn] = pte | _ACCESSED | _DIRTY
        elif not pte & _ACCESSED:
            self._ptes[vpn] = pte | _ACCESSED
        return (pte & ~_OFFSET_MASK) | (va & _OFFSET_MASK)

    def is_mapped(self, va: int) -> bool:
        """True if the page containing ``va`` has a present PTE."""
        if not 0 <= va < _VA_LIMIT:
            check_canonical(va)
        return (va >> PAGE_SHIFT) in self._ptes

    def walk(self):
        """Yield (page-aligned va, PageTableEntry) for every mapping, in VA order."""
        ptes = self._ptes
        for vpn in sorted(ptes):
            yield vpn << PAGE_SHIFT, PageTableEntry._unpack(ptes[vpn])

    def __len__(self) -> int:
        return len(self._ptes)
