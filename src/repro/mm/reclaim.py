"""kswapd-style reclaim.

The paper (Section IV) notes that when no zone can satisfy a request "the
kernel awakens the kswapd to free up pages from zones".  The simulated
kernel registers *reclaimable* allocations (its page-cache-like pool) with
this daemon; when a zone is woken below its ``low`` watermark, kswapd frees
registered blocks from that zone until the free count climbs back above
``high``.

Reclaim is deliberately synchronous and deterministic: :meth:`Kswapd.run`
is called by the kernel at controlled points, so experiments never race a
background thread.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.mm.zone import Zone
from repro.obs import NOOP_OBS
from repro.sim.errors import ConfigError


@dataclass(frozen=True)
class ReclaimableBlock:
    """One registered reclaimable allocation (page-cache-like).

    ``on_reclaim`` (if given) runs after the block is freed, so the owner
    (e.g. the page cache) can drop its references.
    """

    pfn: int
    order: int
    on_reclaim: Callable[[int], None] | None = None


class Kswapd:
    """Per-node reclaim daemon, driven synchronously."""

    def __init__(self) -> None:
        # Oldest-first queues per zone: reclaim takes the LRU end.
        self._pools: dict[str, deque[ReclaimableBlock]] = {}
        self._woken: dict[str, Zone] = {}
        self.wake_count = 0
        self.reclaimed_pages = 0
        self.runs = 0
        self._events = None
        self._run_handle = None
        self.obs = NOOP_OBS

    def bind_obs(self, obs) -> None:
        """Attach an observability hub (the ``mm.kswapd.run`` span is emitted here)."""
        self.obs = obs

    def bind_events(self, events) -> None:
        """Drive reclaim through an event scheduler (queue ``"mm"``).

        A wake arms a due-now event; the kernel drains the queue at fault
        and file-read time, so reclaim happens synchronously at controlled
        instants.
        """
        self._events = events

    # -- registration -------------------------------------------------------

    def register_reclaimable(
        self,
        zone: Zone,
        pfn: int,
        order: int,
        on_reclaim: Callable[[int], None] | None = None,
    ) -> None:
        """Mark an allocated block as reclaimable from ``zone``."""
        if not zone.contains(pfn):
            raise ConfigError(f"pfn {pfn:#x} not in zone {zone.name}")
        self._pools.setdefault(zone.name, deque()).append(
            ReclaimableBlock(pfn=pfn, order=order, on_reclaim=on_reclaim)
        )

    def reclaimable_pages(self, zone: Zone) -> int:
        """Pages currently registered as reclaimable in ``zone``."""
        pool = self._pools.get(zone.name, ())
        return sum(1 << block.order for block in pool)

    # -- wake/run ----------------------------------------------------------------

    def wake(self, zone: Zone) -> None:
        """Note that ``zone`` needs balancing (idempotent until run)."""
        if zone.name not in self._woken:
            self._woken[zone.name] = zone
            self.wake_count += 1
        if self._events is not None and self._run_handle is None:
            self._run_handle = self._events.schedule(
                "mm.kswapd.wake", self._events.clock.now_ns,
                self._on_run_event, queue="mm",
            )

    def _on_run_event(self, now_ns: int) -> None:
        del now_ns
        self._run_handle = None
        if not self._woken:
            return
        with self.obs.tracer.span("mm.kswapd.run", "mm") as span:
            span.set("reclaimed", self.run())

    def pending_zones(self) -> list[str]:
        """Names of zones waiting for a reclaim pass."""
        return sorted(self._woken)

    def run(self) -> int:
        """Balance every woken zone; returns total pages reclaimed.

        For each zone, reclaimable blocks are freed oldest-first into the
        zone's buddy allocator until the zone rises above its ``high``
        watermark or the pool empties.
        """
        if self._run_handle is not None:
            # Direct-reclaim callers (the OOM retry path) run us out of
            # band; the armed wake event must not fire a second, empty run.
            self._events.cancel(self._run_handle)
            self._run_handle = None
        self.runs += 1
        total = 0
        for name in sorted(self._woken):
            zone = self._woken[name]
            total += self._balance_zone(zone)
        self._woken.clear()
        return total

    def _balance_zone(self, zone: Zone) -> int:
        pool = self._pools.get(zone.name)
        reclaimed = 0
        while pool and not zone.above_high_watermark():
            block = pool.popleft()
            zone.buddy.free(block.pfn, block.order)
            if block.on_reclaim is not None:
                block.on_reclaim(block.pfn)
            reclaimed += 1 << block.order
        self.reclaimed_pages += reclaimed
        return reclaimed

    def __repr__(self) -> str:
        pools = {name: len(pool) for name, pool in self._pools.items()}
        return f"Kswapd(pools={pools}, woken={sorted(self._woken)})"
