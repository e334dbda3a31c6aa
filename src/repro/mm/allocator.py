"""The zoned page frame allocator (paper Section IV, Fig. 2).

This is the facade every allocation in the simulated kernel goes through.
For a request it first selects the **local NUMA node** of the requesting
CPU (paper Section III: "Linux uses a node-local allocation policy ...
memory is allocated from the node closest to the CPU running the
program"), walks that node's zonelist (NORMAL -> DMA32 -> DMA for the
default preference), and only then falls back to the remaining nodes.
Per zone:

* order-0 requests are served from the requesting **CPU's page frame
  cache** of that zone — the fast path whose reuse behaviour the attack
  exploits;
* larger requests go straight to the zone's buddy allocator, guarded by
  the ``min`` watermark;
* whenever a zone drops below its ``low`` watermark, kswapd is woken.

Frees are symmetric: order-0 frees return to the freeing CPU's cache of
the owning zone (hot end), larger blocks coalesce straight back into the
buddy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mm.node import NumaNode
from repro.mm.reclaim import Kswapd
from repro.mm.zone import Zone, ZoneType
from repro.obs import NOOP_OBS
from repro.sim.errors import AllocationError, ConfigError, OutOfMemoryError


@dataclass(frozen=True)
class AllocationRequest:
    """A page frame request as the kernel's ``alloc_pages`` would see it."""

    order: int = 0
    cpu: int = 0
    owner_pid: int | None = None
    preferred_zone: ZoneType = ZoneType.NORMAL
    use_pcp: bool = True


class ZonedPageFrameAllocator:
    """Node-local, zonelist-walking allocator facade.

    Accepts one node (the common case) or several; ``cpu_to_node`` maps
    each CPU to its local node (every CPU is local to node 0 when
    omitted).
    """

    def __init__(
        self,
        nodes: NumaNode | list[NumaNode],
        kswapd: Kswapd | None = None,
        cpu_to_node: list[int] | None = None,
    ):
        self.nodes = [nodes] if isinstance(nodes, NumaNode) else list(nodes)
        if not self.nodes:
            raise ConfigError("allocator needs at least one node")
        self.kswapd = kswapd
        self.cpu_to_node = cpu_to_node
        if cpu_to_node is not None:
            for node_index in cpu_to_node:
                if not 0 <= node_index < len(self.nodes):
                    raise ConfigError(f"cpu_to_node entry {node_index} out of range")
        self._stamp = 0
        self.pcp_allocs = 0
        self.buddy_allocs = 0
        self.failed_allocs = 0
        self.remote_node_allocs = 0
        self.bind_obs(NOOP_OBS)

    def bind_obs(self, obs) -> None:
        """Attach an observability hub (see docs/OBSERVABILITY.md).

        The PCP hit/miss split is counted live at allocation time (a hit
        is an order-0 request finding its CPU cache non-empty); everything
        driven by the substrate's own counters — refills, spills, buddy
        split/merge totals, kswapd activity — is collector-sourced.
        """
        self.obs = obs
        metrics = obs.metrics
        self._m_pcp_hit = metrics.counter("mm.pcp.hits")
        self._m_pcp_miss = metrics.counter("mm.pcp.misses")
        self._m_buddy = metrics.counter("mm.buddy.direct_allocs")
        self._m_failed = metrics.counter("mm.alloc.failures")
        self._m_drains = metrics.counter("mm.pcp.drains")
        self._m_drained = metrics.counter("mm.pcp.drained_frames")
        metrics.add_collector(self._metric_values)

    def _metric_values(self) -> dict:
        """The collector-sourced ``mm.*`` gauges."""
        stats = self.stats()
        split_total = merge_total = 0
        for node in self.nodes:
            for zone in node.zones.values():
                split_total += zone.buddy.split_count
                merge_total += zone.buddy.merge_count
        kswapd = self.kswapd
        wakes, runs, reclaimed = (
            (0, 0, 0) if kswapd is None
            else (kswapd.wake_count, kswapd.runs, kswapd.reclaimed_pages)
        )
        return {
            "mm.free_pages": stats["free_pages"],
            "mm.pcp.served_from_cache": stats["pcp_served_from_cache"],
            "mm.pcp.refills": stats["pcp_refills"],
            "mm.pcp.spills": stats["pcp_spills"],
            "mm.buddy.splits": split_total,
            "mm.buddy.merges": merge_total,
            "mm.kswapd.wakeups": wakes,
            "mm.kswapd.runs": runs,
            "mm.kswapd.reclaimed_pages": reclaimed,
        }

    @property
    def node(self) -> NumaNode:
        """The primary node (full machine on single-node configurations)."""
        return self.nodes[0]

    def node_of_cpu(self, cpu: int) -> NumaNode:
        """The NUMA node local to ``cpu``."""
        if self.cpu_to_node is None:
            return self.nodes[0]
        if not 0 <= cpu < len(self.cpu_to_node):
            raise ConfigError(f"cpu {cpu} outside the cpu_to_node map")
        return self.nodes[self.cpu_to_node[cpu]]

    def node_of_pfn(self, pfn: int) -> NumaNode:
        """The node owning frame ``pfn``."""
        for node in self.nodes:
            for zone in node.zones.values():
                if zone.contains(pfn):
                    return node
        raise ConfigError(f"pfn {pfn:#x} not owned by any node")

    def zone_of_pfn(self, pfn: int) -> Zone:
        """The zone owning frame ``pfn`` (across all nodes)."""
        for node in self.nodes:
            for zone in node.zones.values():
                if zone.contains(pfn):
                    return zone
        raise ConfigError(f"pfn {pfn:#x} not in any zone")

    @property
    def total_pages(self) -> int:
        """Frames across every node."""
        return sum(node.total_pages for node in self.nodes)

    @property
    def free_pages_total(self) -> int:
        """Free frames across every node."""
        return sum(node.free_pages for node in self.nodes)

    def next_stamp(self) -> int:
        """Monotonic allocation stamp (for reuse-distance measurements)."""
        self._stamp += 1
        return self._stamp

    # -- allocation -----------------------------------------------------------

    def alloc_pages(self, request: AllocationRequest) -> int:
        """Allocate ``2**order`` contiguous frames; returns the head pfn.

        Tries the CPU's local node first, then the others in id order.
        Raises :class:`OutOfMemoryError` when no zone anywhere can satisfy
        the request.
        """
        stamp = self.next_stamp()
        local = self.node_of_cpu(request.cpu)
        ordered = [local] + [node for node in self.nodes if node is not local]
        last_error: OutOfMemoryError | None = None
        for node in ordered:
            for zone in node.zonelist(request.preferred_zone):
                try:
                    pfn = self._alloc_from_zone(zone, request, stamp)
                except OutOfMemoryError as exc:
                    last_error = exc
                    continue
                if node is not local:
                    self.remote_node_allocs += 1
                self._maybe_wake_kswapd(zone)
                return pfn
        self.failed_allocs += 1
        self._m_failed.inc()
        raise OutOfMemoryError(
            f"order-{request.order} allocation failed in every zone of every "
            f"node (preferred {request.preferred_zone.value})"
        ) from last_error

    def _alloc_from_zone(self, zone: Zone, request: AllocationRequest, stamp: int) -> int:
        if request.order == 0 and request.use_pcp:
            pcp = zone.pcp(request.cpu)
            if pcp.count:
                self._m_pcp_hit.inc()
            else:
                self._m_pcp_miss.inc()
                self.obs.tracer.instant(
                    "mm.pcp.refill", "mm", zone=zone.name, cpu=request.cpu
                )
            pfn = pcp.alloc(owner_pid=request.owner_pid, stamp=stamp)
            self.pcp_allocs += 1
            return pfn
        if not zone.watermark_ok(request.order):
            raise OutOfMemoryError(
                f"zone {zone.name} below min watermark for order {request.order}"
            )
        pfn = zone.buddy.alloc(request.order, owner_pid=request.owner_pid, stamp=stamp)
        self.buddy_allocs += 1
        self._m_buddy.inc()
        self.obs.tracer.instant(
            "mm.buddy.alloc", "mm", zone=zone.name, order=request.order
        )
        return pfn

    # -- free ------------------------------------------------------------------

    def free_pages(self, pfn: int, order: int, cpu: int, use_pcp: bool = True) -> None:
        """Free ``2**order`` frames headed by ``pfn``.

        Order-0 frees with ``use_pcp`` return to the freeing CPU's cache of
        the owning zone (even a remote node's — the cache is per CPU *and*
        per zone); everything else goes straight to the buddy.
        """
        zone = self.zone_of_pfn(pfn)
        if order == 0 and use_pcp:
            zone.pcp(cpu).free(pfn)
        else:
            if order > 0 and not zone.contains(pfn + (1 << order) - 1):
                raise AllocationError(
                    f"block [{pfn:#x}, {pfn + (1 << order):#x}) straddles a zone boundary"
                )
            zone.buddy.free(pfn, order)

    # -- pressure handling ------------------------------------------------------

    def _maybe_wake_kswapd(self, zone: Zone) -> None:
        if zone.below_low_watermark():
            zone.kswapd_wakeups += 1
            if self.kswapd is not None:
                self.kswapd.wake(zone)

    def drain_cpu_caches(self, cpu: int) -> int:
        """Drain ``cpu``'s page frame cache in every zone of every node."""
        drained = sum(
            zone.drain_pcp(cpu)
            for node in self.nodes
            for zone in node.zones.values()
        )
        self._m_drains.inc()
        self._m_drained.inc(drained)
        self.obs.tracer.instant("mm.pcp.drain", "mm", cpu=cpu, frames=drained)
        return drained

    # -- inspection ---------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Aggregate counters across the allocator and its zones."""
        served_from_cache = 0
        refills = 0
        spills = 0
        for node in self.nodes:
            for zone in node.zones.values():
                for cpu in range(zone.num_cpus):
                    pcp = zone.pcp(cpu)
                    served_from_cache += pcp.served_from_cache
                    refills += pcp.refills
                    spills += pcp.spills
        return {
            "pcp_allocs": self.pcp_allocs,
            "buddy_allocs": self.buddy_allocs,
            "failed_allocs": self.failed_allocs,
            "remote_node_allocs": self.remote_node_allocs,
            "pcp_served_from_cache": served_from_cache,
            "pcp_refills": refills,
            "pcp_spills": spills,
            "free_pages": self.free_pages_total,
        }
