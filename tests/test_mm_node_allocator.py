"""NUMA node zonelists and the zoned page frame allocator facade."""

import pytest

from repro.mm.allocator import AllocationRequest, ZonedPageFrameAllocator
from repro.mm.node import NumaNode
from repro.mm.page import FrameTable
from repro.mm.reclaim import Kswapd
from repro.mm.zone import ZoneType
from repro.sim.errors import ConfigError, OutOfMemoryError
from repro.sim.units import MIB, PAGE_SIZE

TOTAL = 64 * MIB


def make_node(cpus=2):
    table = FrameTable(TOTAL // PAGE_SIZE)
    return NumaNode(0, table, TOTAL, num_cpus=cpus)


def make_allocator(cpus=2, kswapd=None):
    return ZonedPageFrameAllocator(make_node(cpus), kswapd)


class TestNode:
    def test_three_zones(self):
        node = make_node()
        assert set(node.zones) == {ZoneType.DMA, ZoneType.DMA32, ZoneType.NORMAL}

    def test_zonelist_order(self):
        node = make_node()
        names = [z.zone_type for z in node.zonelist(ZoneType.NORMAL)]
        assert names == [ZoneType.NORMAL, ZoneType.DMA32, ZoneType.DMA]

    def test_zonelist_never_goes_up(self):
        node = make_node()
        names = [z.zone_type for z in node.zonelist(ZoneType.DMA32)]
        assert names == [ZoneType.DMA32, ZoneType.DMA]

    def test_zone_of_pfn(self):
        node = make_node()
        assert node.zone_of_pfn(0).zone_type is ZoneType.DMA
        last = node.total_pages - 1
        assert node.zone_of_pfn(last).zone_type is ZoneType.NORMAL

    def test_zone_of_bad_pfn(self):
        node = make_node()
        with pytest.raises(ConfigError):
            node.zone_of_pfn(node.total_pages)

    def test_totals(self):
        node = make_node()
        assert node.total_pages == TOTAL // PAGE_SIZE
        assert node.free_pages == node.total_pages

    def test_unknown_zone(self):
        node = make_node()
        with pytest.raises(ConfigError):
            node.zone("Movable")  # type: ignore[arg-type]


class TestAllocatorFastPath:
    def test_order0_goes_through_pcp(self):
        alloc = make_allocator()
        alloc.alloc_pages(AllocationRequest(order=0, cpu=0))
        assert alloc.pcp_allocs == 1
        assert alloc.buddy_allocs == 0

    def test_order0_prefers_normal_zone(self):
        alloc = make_allocator()
        pfn = alloc.alloc_pages(AllocationRequest(order=0, cpu=0))
        assert alloc.node.zone_of_pfn(pfn).zone_type is ZoneType.NORMAL

    def test_bypass_pcp(self):
        alloc = make_allocator()
        alloc.alloc_pages(AllocationRequest(order=0, cpu=0, use_pcp=False))
        assert alloc.buddy_allocs == 1

    def test_high_order_direct_to_buddy(self):
        alloc = make_allocator()
        pfn = alloc.alloc_pages(AllocationRequest(order=5, cpu=0))
        assert pfn % 32 == 0
        assert alloc.buddy_allocs == 1

    def test_owner_tracking(self):
        alloc = make_allocator()
        pfn = alloc.alloc_pages(AllocationRequest(order=0, cpu=0, owner_pid=4242))
        frame = alloc.node.zone_of_pfn(pfn).buddy.frames[pfn]
        assert frame.owner_pid == 4242

    def test_stamps_monotonic(self):
        alloc = make_allocator()
        a = alloc.alloc_pages(AllocationRequest(order=0, cpu=0))
        b = alloc.alloc_pages(AllocationRequest(order=0, cpu=0))
        frames = alloc.node.zone(ZoneType.NORMAL).buddy.frames
        assert frames[b].alloc_stamp > frames[a].alloc_stamp


class TestFallback:
    def test_falls_back_when_normal_exhausted(self):
        alloc = make_allocator()
        normal = alloc.node.zone(ZoneType.NORMAL)
        # Exhaust NORMAL directly (bypassing watermark accounting).
        try:
            while True:
                normal.buddy.alloc(10)
        except OutOfMemoryError:
            pass
        pfn = alloc.alloc_pages(AllocationRequest(order=10, cpu=0))
        assert alloc.node.zone_of_pfn(pfn).zone_type in (ZoneType.DMA32, ZoneType.DMA)

    def test_total_exhaustion_raises(self):
        alloc = make_allocator()
        with pytest.raises(OutOfMemoryError):
            while True:
                alloc.alloc_pages(AllocationRequest(order=10, cpu=0, use_pcp=False))
        assert alloc.failed_allocs >= 1


class TestFree:
    def test_order0_free_to_pcp(self):
        alloc = make_allocator()
        pfn = alloc.alloc_pages(AllocationRequest(order=0, cpu=0))
        alloc.free_pages(pfn, 0, cpu=0)
        zone = alloc.node.zone_of_pfn(pfn)
        assert zone.pcp(0).holds(pfn)

    def test_order0_free_bypass(self):
        alloc = make_allocator()
        pfn = alloc.alloc_pages(AllocationRequest(order=0, cpu=0))
        alloc.free_pages(pfn, 0, cpu=0, use_pcp=False)
        zone = alloc.node.zone_of_pfn(pfn)
        assert not zone.pcp(0).holds(pfn)

    def test_high_order_free(self):
        alloc = make_allocator()
        free_before = alloc.node.free_pages
        pfn = alloc.alloc_pages(AllocationRequest(order=6, cpu=0))
        alloc.free_pages(pfn, 6, cpu=0)
        assert alloc.node.free_pages == free_before

    def test_drain_cpu_caches(self):
        alloc = make_allocator()
        pfn = alloc.alloc_pages(AllocationRequest(order=0, cpu=1))
        alloc.free_pages(pfn, 0, cpu=1)
        moved = alloc.drain_cpu_caches(1)
        assert moved > 0
        assert not alloc.node.zone_of_pfn(pfn).pcp(1).holds(pfn)


class TestKswapdIntegration:
    def test_kswapd_woken_below_low(self):
        kswapd = Kswapd()
        alloc = make_allocator(kswapd=kswapd)
        normal = alloc.node.zone(ZoneType.NORMAL)
        while normal.buddy.free_pages >= normal.watermarks.low_pages + 32:
            alloc.alloc_pages(AllocationRequest(order=5, cpu=0))
        # Next allocations dip below low and wake kswapd.
        alloc.alloc_pages(AllocationRequest(order=5, cpu=0))
        assert kswapd.wake_count >= 1

    def test_stats_shape(self):
        alloc = make_allocator()
        alloc.alloc_pages(AllocationRequest(order=0, cpu=0))
        stats = alloc.stats()
        for key in (
            "pcp_allocs",
            "buddy_allocs",
            "failed_allocs",
            "pcp_served_from_cache",
            "pcp_refills",
            "pcp_spills",
            "free_pages",
        ):
            assert key in stats
