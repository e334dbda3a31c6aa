"""Memory zones and watermarks (paper Section III).

A 64-bit kernel divides each node's frames into ZONE_DMA (first 16 MiB),
ZONE_DMA32 (to 4 GiB) and ZONE_NORMAL (the rest).  The simulated module is
much smaller than 4 GiB, so the default layout scales the boundaries down
while preserving the structure that matters: three zones with a strict
fallback order and independent buddy allocators, watermarks and per-CPU
page caches.  (DESIGN.md records this substitution.)

Watermarks follow the kernel's shape: ``min`` derived from zone size (the
``min_free_kbytes`` heuristic), ``low = min * 5/4`` (kswapd wakes below
this), ``high = min * 3/2`` (kswapd stops above this).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.mm.buddy import MAX_ORDER, BuddyAllocator
from repro.mm.page import FrameTable
from repro.mm.pcp import PcpConfig, PerCpuPageCache
from repro.sim.errors import ConfigError
from repro.sim.units import KIB, MIB, PAGE_SIZE


class ZoneType(enum.Enum):
    """Zone kinds of a 64-bit kernel, in ascending address order."""

    DMA = "DMA"
    DMA32 = "DMA32"
    NORMAL = "Normal"


# Allocation fallback order: prefer NORMAL, spill into DMA32, then DMA —
# exactly the zonelist a 64-bit kernel builds for a GFP_KERNEL request.
ZONELIST_ORDER = (ZoneType.NORMAL, ZoneType.DMA32, ZoneType.DMA)


@dataclass(frozen=True)
class ZoneWatermarks:
    """Free-page thresholds controlling allocation pressure responses."""

    min_pages: int
    low_pages: int
    high_pages: int

    def __post_init__(self) -> None:
        if not 0 <= self.min_pages <= self.low_pages <= self.high_pages:
            raise ConfigError(
                f"watermarks must satisfy 0 <= min <= low <= high, got "
                f"{self.min_pages}/{self.low_pages}/{self.high_pages}"
            )

    @classmethod
    def for_zone_size(cls, zone_pages: int) -> "ZoneWatermarks":
        """Kernel-style watermarks from zone size.

        Follows the ``min_free_kbytes = 4 * sqrt(16 * mem_kbytes)`` shape of
        the kernel heuristic, scaled so small simulated zones still get a
        few dozen reserved pages.
        """
        zone_kb = zone_pages * (PAGE_SIZE // KIB)
        min_kb = int(4 * math.sqrt(16 * max(zone_kb, 1)))
        min_pages = max(8, min_kb // (PAGE_SIZE // KIB))
        min_pages = min(min_pages, max(zone_pages // 8, 1))
        return cls(
            min_pages=min_pages,
            low_pages=min_pages * 5 // 4,
            high_pages=min_pages * 3 // 2,
        )


class Zone:
    """One memory zone: a frame range with its own buddy and pcp caches."""

    def __init__(
        self,
        zone_type: ZoneType,
        frames: FrameTable,
        start_pfn: int,
        end_pfn: int,
        num_cpus: int,
        pcp_config: PcpConfig | None = None,
        watermarks: ZoneWatermarks | None = None,
    ):
        if num_cpus <= 0:
            raise ConfigError(f"num_cpus must be positive, got {num_cpus}")
        self.zone_type = zone_type
        self.start_pfn = start_pfn
        self.end_pfn = end_pfn
        self.buddy = BuddyAllocator(frames, start_pfn, end_pfn)
        self.watermarks = watermarks or ZoneWatermarks.for_zone_size(end_pfn - start_pfn)
        self._pcp = [
            PerCpuPageCache(self.buddy, pcp_config) for _ in range(num_cpus)
        ]
        self.kswapd_wakeups = 0

    @property
    def name(self) -> str:
        """Zone name as /proc/zoneinfo would print it."""
        return self.zone_type.value

    @property
    def total_pages(self) -> int:
        """Number of frames the zone spans."""
        return self.end_pfn - self.start_pfn

    @property
    def free_pages(self) -> int:
        """Frames available right now (buddy free lists + pcp lists)."""
        return self.buddy.free_pages + sum(pcp.count for pcp in self._pcp)

    def pcp(self, cpu: int) -> PerCpuPageCache:
        """The per-CPU page frame cache of ``cpu`` for this zone."""
        if not 0 <= cpu < len(self._pcp):
            raise ConfigError(f"cpu {cpu} out of range [0, {len(self._pcp)})")
        return self._pcp[cpu]

    @property
    def num_cpus(self) -> int:
        """Number of per-CPU caches this zone maintains."""
        return len(self._pcp)

    def contains(self, pfn: int) -> bool:
        """True if the frame belongs to this zone."""
        return self.start_pfn <= pfn < self.end_pfn

    def watermark_ok(self, order: int) -> bool:
        """Can an order-``order`` allocation proceed without breaching min?"""
        return self.buddy.free_pages - (1 << order) >= self.watermarks.min_pages

    def below_low_watermark(self) -> bool:
        """True when kswapd should be woken for this zone."""
        return self.buddy.free_pages < self.watermarks.low_pages

    def above_high_watermark(self) -> bool:
        """True when kswapd may stop reclaiming for this zone."""
        return self.buddy.free_pages >= self.watermarks.high_pages

    def drain_pcp(self, cpu: int) -> int:
        """Drain one CPU's cache back to the buddy; returns frames moved."""
        return self.pcp(cpu).drain()

    def __repr__(self) -> str:
        return (
            f"Zone({self.name}, pfns [{self.start_pfn:#x}, {self.end_pfn:#x}), "
            f"free={self.free_pages}/{self.total_pages})"
        )


@dataclass(frozen=True)
class ZoneLayout:
    """Sizes (in bytes) of the zones carved out of a node's memory."""

    dma_bytes: int = 16 * MIB
    dma32_bytes: int | None = None  # None: half of the remainder
    # NORMAL takes whatever remains.

    def carve(self, total_bytes: int, base_pfn: int = 0) -> list[tuple[ZoneType, int, int]]:
        """Split ``total_bytes`` into (type, start_pfn, end_pfn) triples.

        ``base_pfn`` offsets the whole layout (NUMA node 1+ memory starts
        where the previous node's ends).  Boundaries are aligned down to
        max-order blocks so every zone's buddy allocator starts aligned.
        """
        align_pages = 1 << MAX_ORDER
        if base_pfn % align_pages:
            raise ConfigError(
                f"base_pfn {base_pfn:#x} must be aligned to a max-order block"
            )
        total_pages = total_bytes // PAGE_SIZE
        if total_pages < 3 * align_pages:
            raise ConfigError(
                f"memory too small to carve three zones: {total_bytes} bytes"
            )

        def align(pages: int) -> int:
            """Round down to a max-order multiple (at least one block)."""
            return max(align_pages, (pages // align_pages) * align_pages)

        dma_pages = align(self.dma_bytes // PAGE_SIZE)
        remainder = total_pages - dma_pages
        if self.dma32_bytes is None:
            dma32_pages = align(remainder // 2)
        else:
            dma32_pages = align(self.dma32_bytes // PAGE_SIZE)
        if dma_pages + dma32_pages + align_pages > total_pages:
            raise ConfigError("zone layout exceeds available memory")
        return [
            (ZoneType.DMA, base_pfn, base_pfn + dma_pages),
            (ZoneType.DMA32, base_pfn + dma_pages, base_pfn + dma_pages + dma32_pages),
            (ZoneType.NORMAL, base_pfn + dma_pages + dma32_pages, base_pfn + total_pages),
        ]
