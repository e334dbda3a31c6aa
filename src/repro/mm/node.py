"""NUMA node: the container of zones, with zonelist construction.

Linux allocates node-locally (paper Section III): each node owns its zones
and builds, for every possible "preferred" zone, the ordered fallback list
the allocator walks.  The single-node default machine still goes through
the zonelist machinery so multi-node configurations behave identically.
"""

from __future__ import annotations

from repro.mm.page import FrameTable
from repro.mm.pcp import PcpConfig
from repro.mm.zone import ZONELIST_ORDER, Zone, ZoneLayout, ZoneType
from repro.sim.errors import ConfigError


class NumaNode:
    """One NUMA node holding a set of zones over a contiguous frame range."""

    def __init__(
        self,
        node_id: int,
        frames: FrameTable,
        total_bytes: int,
        num_cpus: int,
        layout: ZoneLayout | None = None,
        pcp_config: PcpConfig | None = None,
        base_pfn: int = 0,
    ):
        if node_id < 0:
            raise ConfigError(f"node_id must be non-negative, got {node_id}")
        self.node_id = node_id
        self.base_pfn = base_pfn
        self.zones: dict[ZoneType, Zone] = {}
        carved = (layout or ZoneLayout()).carve(total_bytes, base_pfn=base_pfn)
        for zone_type, start_pfn, end_pfn in carved:
            self.zones[zone_type] = Zone(
                zone_type,
                frames,
                start_pfn,
                end_pfn,
                num_cpus=num_cpus,
                pcp_config=pcp_config,
            )
        # Zones never change after construction, so every fallback list is
        # built once, keyed by the zone it prefers.
        self._zonelists = {
            preferred: tuple(
                self.zones[zone_type]
                for zone_type in ZONELIST_ORDER[ZONELIST_ORDER.index(preferred):]
                if zone_type in self.zones
            )
            for preferred in self.zones
        }

    def zone(self, zone_type: ZoneType) -> Zone:
        """Look up one zone by type."""
        try:
            return self.zones[zone_type]
        except (KeyError, TypeError):
            raise ConfigError(f"node {self.node_id} has no zone {zone_type!r}") from None

    def zonelist(self, preferred: ZoneType = ZoneType.NORMAL) -> tuple[Zone, ...]:
        """Fallback-ordered zones for an allocation preferring ``preferred``.

        The list starts at the preferred zone and continues *downward*
        through the standard order (a request preferring DMA32 may fall
        back to DMA but never up to NORMAL, matching the kernel).
        """
        try:
            return self._zonelists[preferred]
        except (KeyError, TypeError):
            raise ConfigError(f"unknown preferred zone {preferred}") from None

    def zone_of_pfn(self, pfn: int) -> Zone:
        """The zone containing frame ``pfn``."""
        for zone in self.zones.values():
            if zone.contains(pfn):
                return zone
        raise ConfigError(f"pfn {pfn:#x} not in any zone of node {self.node_id}")

    @property
    def total_pages(self) -> int:
        """Frames across all zones."""
        return sum(zone.total_pages for zone in self.zones.values())

    @property
    def free_pages(self) -> int:
        """Free frames across all zones (buddy + pcp)."""
        return sum(zone.free_pages for zone in self.zones.values())

    def __repr__(self) -> str:
        zones = ", ".join(
            f"{z.name}={z.free_pages}/{z.total_pages}" for z in self.zones.values()
        )
        return f"NumaNode({self.node_id}, {zones})"
