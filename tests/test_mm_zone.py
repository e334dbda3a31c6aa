"""Zones, watermarks and the zone layout carving."""

import pytest

from repro.mm.page import FrameTable
from repro.mm.zone import Zone, ZoneLayout, ZoneType, ZoneWatermarks, ZONELIST_ORDER
from repro.sim.errors import ConfigError
from repro.sim.units import MIB, PAGE_SIZE


def make_zone(pages=8192, cpus=2):
    table = FrameTable(pages)
    return Zone(ZoneType.NORMAL, table, 0, pages, num_cpus=cpus)


class TestWatermarks:
    def test_ordering_invariant(self):
        for pages in (1024, 8192, 262144):
            wm = ZoneWatermarks.for_zone_size(pages)
            assert 0 < wm.min_pages <= wm.low_pages <= wm.high_pages

    def test_scale_with_zone_size(self):
        small = ZoneWatermarks.for_zone_size(1024)
        large = ZoneWatermarks.for_zone_size(262144)
        assert large.min_pages > small.min_pages

    def test_min_bounded_by_zone_fraction(self):
        wm = ZoneWatermarks.for_zone_size(256)
        assert wm.min_pages <= 256 // 8

    def test_invalid_explicit_watermarks(self):
        with pytest.raises(ConfigError):
            ZoneWatermarks(min_pages=10, low_pages=5, high_pages=20)


class TestZone:
    def test_free_pages_includes_pcp(self):
        zone = make_zone()
        total = zone.total_pages
        assert zone.free_pages == total
        pfn = zone.pcp(0).alloc()
        # One allocated; the rest of the refill batch still counts as free.
        assert zone.free_pages == total - 1
        zone.pcp(0).free(pfn)
        assert zone.free_pages == total

    def test_pcp_per_cpu_distinct(self):
        zone = make_zone(cpus=2)
        assert zone.pcp(0) is not zone.pcp(1)
        with pytest.raises(ConfigError):
            zone.pcp(2)

    def test_contains(self):
        table = FrameTable(8192)
        zone = Zone(ZoneType.DMA32, table, 1024, 4096, num_cpus=1)
        assert zone.contains(1024)
        assert zone.contains(4095)
        assert not zone.contains(4096)
        assert not zone.contains(0)

    def test_watermark_ok(self):
        zone = make_zone(pages=2048)
        assert zone.watermark_ok(0)
        # Drain the zone near empty.
        while zone.buddy.free_pages > zone.watermarks.min_pages:
            zone.buddy.alloc(0)
        assert not zone.watermark_ok(0)

    def test_low_high_watermark_predicates(self):
        zone = make_zone(pages=2048)
        assert not zone.below_low_watermark()
        assert zone.above_high_watermark()
        while zone.buddy.free_pages >= zone.watermarks.low_pages:
            zone.buddy.alloc(0)
        assert zone.below_low_watermark()
        assert not zone.above_high_watermark()

    def test_name(self):
        assert make_zone().name == "Normal"

    def test_zero_cpus_rejected(self):
        table = FrameTable(2048)
        with pytest.raises(ConfigError):
            Zone(ZoneType.DMA, table, 0, 2048, num_cpus=0)


class TestZoneLayout:
    def test_default_carve_covers_everything(self):
        layout = ZoneLayout()
        triples = layout.carve(256 * MIB)
        assert triples[0][1] == 0
        for (_, _, end), (_, start, _) in zip(triples, triples[1:]):
            assert end == start
        assert triples[-1][2] == 256 * MIB // PAGE_SIZE

    def test_dma_is_16mib(self):
        triples = ZoneLayout().carve(256 * MIB)
        zone_type, start, end = triples[0]
        assert zone_type is ZoneType.DMA
        assert (end - start) * PAGE_SIZE == 16 * MIB

    def test_alignment(self):
        for _, start, end in ZoneLayout().carve(256 * MIB):
            assert start % 1024 == 0  # max-order aligned

    def test_explicit_dma32_size(self):
        layout = ZoneLayout(dma32_bytes=32 * MIB)
        triples = layout.carve(256 * MIB)
        _, start, end = triples[1]
        assert (end - start) * PAGE_SIZE == 32 * MIB

    def test_too_small_memory_rejected(self):
        with pytest.raises(ConfigError):
            ZoneLayout().carve(8 * MIB)

    def test_oversized_layout_rejected(self):
        with pytest.raises(ConfigError):
            ZoneLayout(dma32_bytes=512 * MIB).carve(64 * MIB)


class TestZonelistOrder:
    def test_normal_first(self):
        assert ZONELIST_ORDER[0] is ZoneType.NORMAL
        assert ZONELIST_ORDER[-1] is ZoneType.DMA
