"""Machine assembly: wire every substrate together from one config.

Besides construction, this module owns the machine's *lifecycle*
operations: driving the event scheduler (:meth:`Machine.run_until` /
:meth:`Machine.step`), cloning warm state
(:meth:`Machine.snapshot` / :meth:`Machine.fork`) so a campaign can
fan out from one templated machine instead of rebuilding and
re-templating per attempt, and ending a machine (:meth:`Machine.close`)
so it is freed as soon as its run is over.
"""

from __future__ import annotations

import io
import pickle

from repro.core.config import MachineConfig
from repro.defense.watchdog import HammerWatchdog
from repro.dram.cache import CpuCache
from repro.dram.controller import MemoryController
from repro.dram.mapping import make_mapping
from repro.dram.memory import PhysicalMemory
from repro.mm.allocator import ZonedPageFrameAllocator
from repro.mm.node import NumaNode
from repro.mm.page import FrameTable
from repro.mm.reclaim import Kswapd
from repro.obs import NOOP_OBS, Observability
from repro.os.kernel import Kernel
from repro.os.scheduler import Scheduler
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.sim.rng import RngStreams
from repro.sim.units import PAGE_SIZE


class _SnapshotPickler(pickle.Pickler):
    """Pickler that leaves a snapshot's shared state out of the blob.

    Every object in ``shared`` (token -> live object) pickles as its
    token, a persistent id: the observability hub, the machine's CoW
    frame table, the controller's flip log and the three memo caches.
    :class:`_SnapshotUnpickler` hands each fork its view of them.
    """

    def __init__(self, file, shared: dict):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._tokens = {id(obj): token for token, obj in shared.items()}

    def persistent_id(self, obj):
        return self._tokens.get(id(obj))


class _SnapshotUnpickler(pickle.Unpickler):
    """Counterpart of :class:`_SnapshotPickler`: resolves tokens for one fork."""

    def __init__(self, file, snapshot: "MachineSnapshot"):
        super().__init__(file)
        self._snapshot = snapshot

    def persistent_load(self, pid):
        snapshot = self._snapshot
        if pid == "obs":
            return NOOP_OBS
        if pid == "frames":
            # The fork co-owns every frozen frame payload; it privatises a
            # frame only when it first writes to it (copy-on-write).
            return PhysicalMemory.bump_refs(snapshot._frames)
        if pid == "flip_log":
            # A fresh list over the shared, frozen events: the fork appends
            # its own flips without touching the snapshot or its siblings.
            return list(snapshot._flip_log)
        if pid in snapshot._memos:
            # Shared by reference: every fork fills the same memo.
            return snapshot._memos[pid]
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


class MachineSnapshot:
    """A frozen copy of a machine (plus companions) at one instant.

    The snapshot is decoupled from the live machine — the original can
    keep running — and :meth:`fork` stamps out any number of independent
    machines from it.  Freezing serialises the (small) object graph once
    and becomes a co-owner of the machine's materialised DRAM frames, so
    neither the snapshot nor its forks copy page payloads: forks share
    them copy-on-write, making fork() O(1) in module size.

    One table of persistent ids keeps shared state out of the frozen
    blob; the unpickler resolves each token per fork.  The observability
    hub becomes :data:`NOOP_OBS` (every fork then gets a fresh hub, so
    metrics never alias), the frame table the snapshot's frames, and the
    flip log a fresh list over the frozen snapshot-time events (a fork
    appends its own flips privately).  The weak-cell and victim-plan
    memos, pure functions of the build seed and the machine's shape,
    become the snapshot's own dicts, shared by every fork; a snapshot
    rehydrated with :meth:`from_bytes` starts one fresh set.

    The snapshot owns no live machine: the one it froze can be closed
    at once, and each fork should be closed (:meth:`Machine.close`) when
    its run is over, so reference counting returns its frame claims
    immediately instead of leaving the fork for the cyclic GC.
    """

    def __init__(self, machine: "Machine", extras=None):
        controller = machine.controller
        weak = controller.weak_cells
        self._memos = {
            "weak_memo": weak._memo,
            "pop_memo": weak._pop_memo,
            "plan_memo": controller._plan_memo,
        }
        self._frames = controller.memory.share_frames()
        self._flip_log = tuple(controller.flip_log)
        buffer = io.BytesIO()
        _SnapshotPickler(buffer, {
            "obs": machine.obs,
            "frames": controller.memory._frames,
            "flip_log": controller.flip_log,
            **self._memos,
        }).dump((machine, extras))
        self._blob = buffer.getvalue()

    def __del__(self):
        frames = getattr(self, "_frames", None)
        if frames:
            PhysicalMemory.release_frames(frames)

    def fork(self, seed: int | None = None) -> tuple["Machine", object]:
        """A fresh, independent (machine, extras) pair from the snapshot.

        With ``seed`` the fork's RNG streams are re-keyed, giving it an
        independent but reproducible random future; its materialised
        state (weak-cell map, memory contents, allocator lists, pending
        events) is untouched — hardware does not change identity when an
        experiment re-rolls its dice.  The machine gets a fresh hub; objects
        in ``extras`` come back bound to :data:`NOOP_OBS` until their owner
        re-binds them (``attack.bind_obs(machine.obs)``).
        """
        machine, extras = _SnapshotUnpickler(io.BytesIO(self._blob), self).load()
        machine._rebind_obs()
        if seed is not None:
            machine.rng.reseed(seed)
        return machine, extras

    def to_bytes(self) -> bytes:
        """Serialise the frozen state for shipping to worker processes.

        The snapshot holds no live observability hub (serialisation swapped
        it for :data:`NOOP_OBS`, which pickles as the singleton), no open
        files and no threads, so the result is self-contained: the CoW
        frame table travels as one packed payload and the flip log next to
        the blob, and ``from_bytes`` in any process yields a snapshot whose
        forks are byte-identical to forks taken in the parent
        (docs/CAMPAIGNS.md).
        """
        pfns, payload = PhysicalMemory.pack_frames(self._frames)
        return pickle.dumps(
            {
                "pfns": pfns,
                "payload": payload,
                "blob": self._blob,
                "flip_log": self._flip_log,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MachineSnapshot":
        """Rehydrate a snapshot previously serialised with :meth:`to_bytes`."""
        state = pickle.loads(blob)
        snapshot = cls.__new__(cls)
        snapshot._frames = PhysicalMemory.unpack_frames(state["pfns"], state["payload"])
        # The memos do not travel: this snapshot's forks share one fresh
        # set and regenerate entries on demand.
        snapshot._memos = {"weak_memo": {}, "pop_memo": {}, "plan_memo": {}}
        snapshot._blob = state["blob"]
        snapshot._flip_log = state["flip_log"]
        return snapshot


class Machine:
    """A complete simulated computer: DRAM, allocators, kernel, CPUs.

    Deterministic: two machines built from equal configs behave
    identically, including the weak-cell map of their DRAM.
    """

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()
        self.rng = RngStreams(self.config.seed)
        self.clock = SimClock()
        self.obs = Observability(
            self.clock, metrics_enabled=self.config.metrics_enabled
        )

        # The event core: every timed behaviour (refresh, kswapd, scheduler
        # ticks, watchdog scans, chaos hooks, orchestrator backoff) routes
        # through this one scheduler.
        self.events = EventScheduler(self.clock)

        geometry = self.config.geometry
        self.mapping = make_mapping(self.config.mapping, geometry)
        self.controller = MemoryController(
            geometry=geometry,
            mapping=self.mapping,
            timing=self.config.timing,
            flip_config=self.config.flip_model,
            rng=self.rng,
            clock=self.clock,
            trr_config=self.config.trr,
            ecc_config=self.config.ecc,
            events=self.events,
        )
        self.cache = CpuCache(self.config.cache)

        total_pages = geometry.total_bytes // PAGE_SIZE
        self.frames = FrameTable(total_pages)
        num_nodes = self.config.num_nodes
        # Pages that don't divide evenly across nodes are truncated: each
        # node manages exactly node_pages, and the tail (like a firmware
        # hole) stays outside every node.
        node_pages = total_pages // num_nodes
        self.unmanaged_bytes = geometry.total_bytes - node_pages * PAGE_SIZE * num_nodes
        self.nodes = [
            NumaNode(
                node_id=index,
                frames=self.frames,
                total_bytes=node_pages * PAGE_SIZE,
                num_cpus=self.config.num_cpus,
                layout=self.config.zone_layout,
                pcp_config=self.config.pcp,
                base_pfn=index * node_pages,
            )
            for index in range(num_nodes)
        ]
        managed = sum(node.total_pages for node in self.nodes) * PAGE_SIZE
        assert managed + self.unmanaged_bytes == geometry.total_bytes, (
            f"per-node byte accounting broken: {managed} managed + "
            f"{self.unmanaged_bytes} unmanaged != {geometry.total_bytes} total"
        )
        self.node = self.nodes[0]
        self.kswapd = Kswapd()
        self.kswapd.bind_events(self.events)
        cpus_per_node = self.config.num_cpus // num_nodes
        cpu_to_node = [cpu // cpus_per_node for cpu in range(self.config.num_cpus)]
        self.allocator = ZonedPageFrameAllocator(
            self.nodes, self.kswapd, cpu_to_node=cpu_to_node if num_nodes > 1 else None
        )
        self.scheduler = Scheduler(self.config.num_cpus)
        self.scheduler.bind_events(self.events)
        self.kernel = Kernel(
            allocator=self.allocator,
            controller=self.controller,
            cache=self.cache,
            clock=self.clock,
            scheduler=self.scheduler,
            kswapd=self.kswapd,
            events=self.events,
        )
        self.watchdog = (
            HammerWatchdog(self.config.watchdog) if self.config.watchdog else None
        )
        if self.watchdog is not None:
            self.watchdog.bind_events(self.events, self.kernel.ledger)

        self._bind_obs_chain()

    # -- observability ---------------------------------------------------------

    def _bind_obs_chain(self) -> None:
        """(Re-)attach every component to the machine's current hub."""
        self.controller.bind_obs(self.obs)
        self.allocator.bind_obs(self.obs)
        self.scheduler.bind_obs(self.obs)
        self.kernel.bind_obs(self.obs)
        self.kswapd.bind_obs(self.obs)
        self.events.bind_obs(self.obs)
        if self.watchdog is not None:
            self.watchdog.bind_obs(self.obs)
        if self.kernel.chaos is not None:
            self.kernel.chaos.bind_obs(self.obs)
        self.cache.bind_obs(self.obs)
        self.obs.metrics.add_collector(self._metric_values)

    def _rebind_obs(self) -> None:
        """Give a forked machine its own fresh observability hub."""
        self.obs = Observability(
            self.clock, metrics_enabled=self.config.metrics_enabled
        )
        self._bind_obs_chain()

    def _metric_values(self) -> dict:
        """CPU-cache counters and the clock, read at snapshot time."""
        cache = self.cache
        return {
            "cpu_cache.hits": cache.hits,
            "cpu_cache.misses": cache.misses,
            "cpu_cache.flushes": cache.flushes,
            "sim.clock_ns": self.clock.now_ns,
        }

    # -- the event loop --------------------------------------------------------

    def run_until(self, target_ns: int) -> int:
        """Advance simulated time to ``target_ns``, firing due events.

        Returns the number of events dispatched.
        """
        return self.events.run_until(target_ns)

    def step(self) -> int | None:
        """Advance to the next scheduled event and fire it.

        Returns the firing time, or None when idle.
        """
        return self.events.step()

    # -- snapshot / fork -------------------------------------------------------

    def snapshot(self, extras=None) -> MachineSnapshot:
        """Freeze the machine (and optional companion objects) for forking.

        ``extras`` rides along through the same deep copy, so objects
        holding machine references (an attack mid-pipeline, templated
        candidates) stay consistent with the copied machine.
        """
        return MachineSnapshot(self, extras)

    def fork(self, seed: int | None = None) -> "Machine":
        """An independent deep copy of this machine, optionally re-seeded.

        One-shot convenience over :meth:`snapshot`; to stamp out many
        forks, take one snapshot and fork it repeatedly.
        """
        machine, _ = MachineSnapshot(self).fork(seed=seed)
        return machine

    def close(self) -> None:
        """End the machine: let reference counting free its whole graph.

        Pending events hold bound methods of the components that own
        them, metric collectors close over the components they read, and
        a chaos engine and its kernel point at each other; each is a
        reference cycle that would leave a finished machine (with its
        private CoW frames) for the cyclic GC.  Closing cancels every
        pending event and drops its callback, drops the metric
        collectors and detaches the chaos engine.  Take the report and
        ``obs.metrics.snapshot()`` first: a closed machine does not run,
        and its registry keeps reporting the values of its last read.
        """
        self.events.close()
        self.obs.metrics.close()
        self.kernel.chaos = None

    @property
    def num_cpus(self) -> int:
        """Number of simulated CPUs."""
        return self.config.num_cpus

    def stats(self) -> dict[str, dict]:
        """One snapshot of every subsystem's counters."""
        return {
            "dram": self.controller.stats(),
            "trr": self.controller.trr_stats(),
            "ecc": self.controller.ecc_stats(),
            "allocator": self.allocator.stats(),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "flushes": self.cache.flushes,
            },
            "kernel": vars(self.kernel.stats).copy(),
            "clock_ns": {"now": self.clock.now_ns},
            "events": self.events.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"Machine(seed={self.config.seed}, cpus={self.num_cpus}, "
            f"dram={self.config.geometry})"
        )
