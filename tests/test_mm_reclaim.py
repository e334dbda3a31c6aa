"""kswapd reclaim over registered reclaimable blocks."""

import pytest

from repro.mm.page import FrameTable, PageFlags
from repro.mm.reclaim import Kswapd
from repro.mm.zone import Zone, ZoneType
from repro.sim.errors import ConfigError


def make_zone(pages=2048):
    table = FrameTable(pages)
    return Zone(ZoneType.NORMAL, table, 0, pages, num_cpus=1)


class TestRegistration:
    def test_register_and_count(self):
        zone = make_zone()
        kswapd = Kswapd()
        pfn = zone.buddy.alloc(3)
        kswapd.register_reclaimable(zone, pfn, 3)
        assert kswapd.reclaimable_pages(zone) == 8

    def test_register_foreign_pfn_rejected(self):
        zone = make_zone()
        kswapd = Kswapd()
        with pytest.raises(ConfigError):
            kswapd.register_reclaimable(zone, 99999, 0)


class TestWakeRun:
    def test_wake_is_idempotent(self):
        zone = make_zone()
        kswapd = Kswapd()
        kswapd.wake(zone)
        kswapd.wake(zone)
        assert kswapd.wake_count == 1
        assert kswapd.pending_zones() == [zone.name]

    def test_run_reclaims_until_high(self):
        zone = make_zone()
        kswapd = Kswapd()
        blocks = []
        # Consume the zone below the low watermark, registering everything.
        while zone.buddy.free_pages > zone.watermarks.min_pages + 8:
            pfn = zone.buddy.alloc(3)
            blocks.append(pfn)
            kswapd.register_reclaimable(zone, pfn, 3)
        assert zone.below_low_watermark()
        kswapd.wake(zone)
        reclaimed = kswapd.run()
        assert reclaimed > 0
        assert zone.above_high_watermark()
        assert kswapd.pending_zones() == []

    def test_run_without_pool_is_safe(self):
        zone = make_zone()
        kswapd = Kswapd()
        while zone.buddy.free_pages > zone.watermarks.min_pages + 8:
            zone.buddy.alloc(3)
        kswapd.wake(zone)
        assert kswapd.run() == 0

    def test_reclaim_is_oldest_first(self):
        zone = make_zone()
        kswapd = Kswapd()
        first = zone.buddy.alloc(0)
        second = zone.buddy.alloc(0)
        kswapd.register_reclaimable(zone, first, 0)
        kswapd.register_reclaimable(zone, second, 0)
        # Starve the zone so reclaim definitely triggers.
        while zone.buddy.free_pages > zone.watermarks.min_pages:
            zone.buddy.alloc(0)
        kswapd.wake(zone)
        kswapd.run()
        # The oldest registered block was freed first.
        assert zone.buddy.frames[first].flags is PageFlags.FREE_BUDDY

    def test_counters(self):
        zone = make_zone()
        kswapd = Kswapd()
        kswapd.wake(zone)
        kswapd.run()
        assert kswapd.runs == 1
