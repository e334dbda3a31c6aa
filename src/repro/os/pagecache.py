"""A page cache: the kernel's reclaimable memory consumer.

Real systems run with most "free" memory holding file pages, and the
allocator keeps working because kswapd reclaims them under pressure.
This module provides that dynamic for the simulation: simulated files
whose pages are cached in physical frames on first read, registered with
kswapd as reclaimable, and transparently re-fetched ("from disk") after a
reclaim.

File contents are a pure function of (file id, offset), so re-reads after
reclaim return identical bytes and any cache-coherence bug would show up
as a content mismatch in the tests.
"""

from __future__ import annotations

import hashlib

from repro.mm.allocator import AllocationRequest, ZonedPageFrameAllocator
from repro.mm.reclaim import Kswapd
from repro.dram.controller import MemoryController
from repro.dram.memory import PhysicalMemory
from repro.sim.errors import ConfigError
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE


def file_page_content(file_id: int, page_index: int) -> bytes:
    """Deterministic 4 KiB content of one file page."""
    seed = hashlib.sha256(f"file:{file_id}:page:{page_index}".encode()).digest()
    repeats = PAGE_SIZE // len(seed)
    return seed * repeats


class PageCache:
    """(file id, page index) -> cached frame, with reclaim integration."""

    def __init__(
        self,
        allocator: ZonedPageFrameAllocator,
        memory: PhysicalMemory,
        kswapd: Kswapd,
        controller: MemoryController,
    ):
        self.allocator = allocator
        self.memory = memory
        self.kswapd = kswapd
        # Page fills issue a row access so streaming I/O shows up
        # (modestly) in activation accounting.
        self.controller = controller
        self._pages: dict[tuple[int, int], int] = {}
        self._by_pfn: dict[int, tuple[int, int]] = {}
        self.hits = 0
        self.misses = 0
        self.reclaimed = 0

    @property
    def cached_pages(self) -> int:
        """File pages currently held in memory."""
        return len(self._pages)

    def holds(self, file_id: int, page_index: int) -> bool:
        """True if the page is currently cached."""
        return (file_id, page_index) in self._pages

    def _on_reclaim(self, pfn: int) -> None:
        key = self._by_pfn.pop(pfn, None)
        if key is not None:
            del self._pages[key]
            self.reclaimed += 1

    def _fill(self, file_id: int, page_index: int, cpu: int) -> int:
        pfn = self.allocator.alloc_pages(
            AllocationRequest(order=0, cpu=cpu, owner_pid=None)
        )
        self.memory.write(pfn << PAGE_SHIFT, file_page_content(file_id, page_index))
        self.controller.access(pfn << PAGE_SHIFT)
        zone = self.allocator.zone_of_pfn(pfn)
        self.kswapd.register_reclaimable(zone, pfn, 0, on_reclaim=self._on_reclaim)
        self._pages[(file_id, page_index)] = pfn
        self._by_pfn[pfn] = (file_id, page_index)
        return pfn

    def read(self, file_id: int, offset: int, length: int, cpu: int = 0) -> bytes:
        """Read file bytes through the cache (filling missing pages)."""
        if offset < 0 or length < 0:
            raise ConfigError("offset and length must be non-negative")
        out = bytearray()
        cursor = offset
        remaining = length
        while remaining > 0:
            page_index = cursor >> PAGE_SHIFT
            in_page = cursor & (PAGE_SIZE - 1)
            chunk = min(remaining, PAGE_SIZE - in_page)
            key = (file_id, page_index)
            pfn = self._pages.get(key)
            if pfn is None:
                pfn = self._fill(file_id, page_index, cpu)
                self.misses += 1
            else:
                self.hits += 1
            out += self.memory.read((pfn << PAGE_SHIFT) + in_page, chunk)
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def fill_fraction(self, fraction: float, file_id: int = 1, cpu: int = 0) -> int:
        """Populate the cache up to ``fraction`` of the node's memory.

        Returns the number of pages read in.  Used by the pressure
        experiments to emulate a warmed-up system.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"fraction must be in [0, 1], got {fraction}")
        target_pages = int(self.allocator.total_pages * fraction)
        filled = 0
        page_index = 0
        while self.cached_pages < target_pages:
            headroom = self.allocator.free_pages_total
            if headroom < 64:  # leave the min-watermark region alone
                break
            self.read(file_id, page_index << PAGE_SHIFT, PAGE_SIZE, cpu=cpu)
            page_index += 1
            filled += 1
        return filled

    def __repr__(self) -> str:
        return (
            f"PageCache(cached={self.cached_pages}, hits={self.hits}, "
            f"misses={self.misses}, reclaimed={self.reclaimed})"
        )
