"""The ``/proc/<pid>/pagemap`` interface with its privilege gate.

Section VI of the paper builds on a specific kernel policy: *"since Linux
4.0, only users with the CAP_SYS_ADMIN capability can get PFNs"* from
pagemap.  An unprivileged attacker therefore cannot locate her data in
physical memory — which is exactly why the page-frame-cache side channel
matters.  This module reproduces the interface and its gate so the
privileged baseline attack (which *does* read PFNs) and the unprivileged
ExplFrame attack can be compared on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.os.capabilities import Capability, CapabilitySet
from repro.sim.units import PAGE_SIZE


@dataclass(frozen=True)
class PagemapEntry:
    """One 64-bit pagemap record, decoded.

    ``pfn`` is 0 when the page is present but the reader lacks
    CAP_SYS_ADMIN — the post-4.0 kernel behaviour.
    """

    present: bool
    pfn: int
    soft_dirty: bool = False

    @property
    def pfn_visible(self) -> bool:
        """True when the record actually discloses the frame number."""
        return self.present and self.pfn != 0


class Pagemap:
    """Reader for one task's pagemap, gated by the *reader's* capabilities."""

    def __init__(self, address_space, reader_caps: CapabilitySet):
        self._mm = address_space
        self._caps = reader_caps

    def read(self, va: int) -> PagemapEntry:
        """The pagemap record for the page containing ``va``."""
        entry = self._mm.page_table.entry(va & ~(PAGE_SIZE - 1))
        if entry is None:
            return PagemapEntry(present=False, pfn=0)
        if not self._caps.has(Capability.CAP_SYS_ADMIN):
            return PagemapEntry(present=True, pfn=0, soft_dirty=entry.dirty)
        return PagemapEntry(present=True, pfn=entry.pfn, soft_dirty=entry.dirty)
