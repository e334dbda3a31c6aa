"""Machine snapshot/fork semantics and event-core integration.

Two claims are under test:

1. A forked machine is *independent* (mutations never alias the
   original) yet *identical in destiny*: forking a warm machine and
   re-keying its RNG produces bit-for-bit the same behaviour as
   rebuilding from scratch with that seed.
2. Every recurring behaviour — DRAM refresh, kswapd, scheduler ticks,
   watchdog scans, chaos pump points — verifiably routes through the
   :class:`EventScheduler` or the kernel's syscall pump points (asserted
   via the observability counters).
"""

import gc
import hashlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.attack.evictframe import EvictFrameConfig
from repro.attack.explframe import ExplFrameConfig
from repro.attack.orchestrator import AttackCampaign, AttackOrchestrator
from repro.attack.templating import Templator, TemplatorConfig
from repro.core import Machine, MachineConfig
from repro.core.machine import MachineSnapshot
from repro.defense.watchdog import WatchdogConfig
from repro.dram.controller import MemoryController
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.chaos import ChaosEngine, chaos_profile
from repro.sim.units import MIB, MS, PAGE_SIZE
from repro.workload import scenario_preset

FAST = ExplFrameConfig(
    templator=TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
)


@contextmanager
def collector_off():
    """Run the body with the cyclic GC off: only reference counting frees."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def repro_garbage() -> list[str]:
    """Names of the ``repro`` types a full collection finds unreachable."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def vulnerable_config(seed=7):
    return MachineConfig(
        seed=seed,
        geometry=DRAMGeometry.small(),
        flip_model=FlipModelConfig.highly_vulnerable(),
    )


class TestSnapshotFork:
    def test_fork_preserves_clock_and_pending_events(self):
        machine = Machine(MachineConfig.small(seed=0))
        machine.run_until(10 * MS)
        fork = machine.fork()
        assert fork.clock.now_ns == machine.clock.now_ns
        assert fork.events.pending() == machine.events.pending()

    def test_fork_is_independent_of_original(self):
        machine = Machine(MachineConfig.small(seed=0))
        fork = machine.fork()
        fork.run_until(50 * MS)
        assert machine.clock.now_ns == 0
        assert fork.clock.now_ns == 50 * MS

    def test_fork_gets_fresh_observability(self):
        machine = Machine(MachineConfig.small(seed=0))
        machine.run_until(10 * MS)
        before = machine.obs.metrics.snapshot()["sim.events.scheduled"]
        fork = machine.fork()
        assert fork.obs is not machine.obs
        # The fork's hub starts clean; the original's is untouched.
        assert fork.obs.metrics.snapshot()["sim.events.scheduled"] == 0
        assert machine.obs.metrics.snapshot()["sim.events.scheduled"] == before

    def test_fork_reseed_rekeys_rng_without_touching_original(self):
        machine = Machine(MachineConfig.small(seed=0))
        fork = machine.fork(seed=123)
        assert fork.rng.master_seed == 123
        assert machine.rng.master_seed == 0

    def test_same_seed_forks_share_a_destiny(self):
        snapshot = Machine(MachineConfig.small(seed=0)).snapshot()
        twin_a, _ = snapshot.fork(seed=5)
        twin_b, _ = snapshot.fork(seed=5)
        twin_a.run_until(100 * MS)
        twin_b.run_until(100 * MS)
        assert twin_a.stats() == twin_b.stats()

    def test_snapshot_extras_ride_along(self):
        machine = Machine(MachineConfig.small(seed=0))
        snapshot = machine.snapshot(extras={"tag": [1, 2, 3]})
        _, extras_a = snapshot.fork()
        _, extras_b = snapshot.fork()
        assert extras_a == {"tag": [1, 2, 3]}
        extras_a["tag"].append(4)
        assert extras_b == {"tag": [1, 2, 3]}


class TestCowSnapshots:
    def test_forks_share_frames_until_write(self):
        machine = Machine(MachineConfig.small(seed=0))
        machine.controller.memory.write(0, b"seed data")
        snapshot = machine.snapshot()
        fork_a, _ = snapshot.fork()
        fork_b, _ = snapshot.fork()
        mem_a, mem_b = fork_a.controller.memory, fork_b.controller.memory
        assert mem_a.is_shared(0) and mem_b.is_shared(0)
        mem_a.write(0, b"DIVERGED!")
        assert mem_a.read(0, 9) == b"DIVERGED!"
        assert mem_b.read(0, 9) == b"seed data"
        assert machine.controller.memory.read(0, 9) == b"seed data"
        assert mem_a.cow_copies == 1 and mem_b.cow_copies == 0

    def test_fork_gc_releases_frame_refs(self):
        machine = Machine(MachineConfig.small(seed=0))
        machine.controller.memory.write(0, b"x")
        snapshot = machine.snapshot()
        frame = snapshot._frames[0]
        base_refs = frame.refs
        with collector_off():
            fork, _ = snapshot.fork()
            assert frame.refs == base_refs + 1
            fork.close()
            del fork
            assert frame.refs == base_refs

    def test_ship_round_trip_of_partially_materialised_store(self):
        machine = Machine(MachineConfig.small(seed=0))
        machine.controller.memory.write(2 * PAGE_SIZE, b"payload")
        snapshot = machine.snapshot()
        clone = MachineSnapshot.from_bytes(snapshot.to_bytes())
        fork, _ = clone.fork()
        memory = fork.controller.memory
        assert memory.materialized_frames() == machine.controller.memory.materialized_frames()
        assert memory.read(2 * PAGE_SIZE, 7) == b"payload"
        memory.write(2 * PAGE_SIZE, b"rewrite")  # CoW privatises, clone unaffected
        sibling, _ = clone.fork()
        assert sibling.controller.memory.read(2 * PAGE_SIZE, 7) == b"payload"


class TestVictimPlanMemo:
    """The memos (victim plans, weak cells, row populations) are shared by
    forks through the snapshot's persistent ids, never pickled."""

    @staticmethod
    def _templated_machine():
        machine = Machine(vulnerable_config())
        pid = machine.kernel.spawn("templater").pid
        config = TemplatorConfig(buffer_bytes=MIB, batch_pairs=8)
        assert Templator(machine.kernel, pid, config).run().templates
        return machine

    def test_filled_memo_stays_out_of_the_snapshot_blob(self):
        machine = self._templated_machine()
        memo = machine.controller._plan_memo
        assert any(memo.values())  # non-vacuous: some plans hold victims
        full = machine.snapshot()
        machine.controller._plan_memo = {}
        empty = machine.snapshot()
        assert len(full._blob) <= len(empty._blob)

    def test_forks_share_the_parent_memo(self):
        machine = self._templated_machine()
        snapshot = machine.snapshot()
        fork_a, _ = snapshot.fork()
        fork_b, _ = snapshot.fork(seed=3)
        memo = machine.controller._plan_memo
        assert fork_a.controller._plan_memo is memo
        assert fork_b.controller._plan_memo is memo
        shipped, _ = MachineSnapshot.from_bytes(snapshot.to_bytes()).fork()
        assert shipped.controller._plan_memo == {}

    def test_shipped_snapshot_carries_no_memos_and_its_forks_share_one_fresh_set(self):
        machine = self._templated_machine()

        def memos(m):
            weak = m.controller.weak_cells
            return weak._memo, weak._pop_memo, m.controller._plan_memo

        parent = memos(machine)
        assert all(parent)  # non-vacuous: templating filled all three
        snapshot = machine.snapshot()
        assert all(a is b for a, b in zip(memos(snapshot.fork()[0]), parent))
        shipped = MachineSnapshot.from_bytes(snapshot.to_bytes())
        fork_a, _ = shipped.fork()
        fork_b, _ = shipped.fork(seed=3)
        for memo_a, memo_b, memo_parent in zip(memos(fork_a), memos(fork_b), parent):
            assert memo_a == {}
            assert memo_a is memo_b
            assert memo_a is not memo_parent
        assert len({id(memo) for memo in memos(fork_a)}) == 3

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(MemoryController, "_MEMO_LIMIT", 4)
        machine = self._templated_machine()
        assert 0 < len(machine.controller._plan_memo) <= 4

    def test_warm_and_cold_memo_forks_hammer_alike(self):
        """The memo also holds each hammer's layout, keyed by its address
        tuple.  A fork on the parent's warm memo and a shipped fork with a
        cold one end every template's re-hammer in the same state."""
        machine = Machine(vulnerable_config())
        pid = machine.kernel.spawn("templater").pid
        config = TemplatorConfig(buffer_bytes=MIB, batch_pairs=8)
        templates = Templator(machine.kernel, pid, config).run().templates[:4]
        assert templates
        snapshot = machine.snapshot()
        states = []
        for fork in (snapshot.fork()[0], MachineSnapshot.from_bytes(snapshot.to_bytes()).fork()[0]):
            warm = len(fork.controller._plan_memo)
            for template in templates:
                fork.kernel.sys_hammer(pid, list(template.aggressor_vas), 650_000)
            controller = fork.controller
            states.append((list(controller.flip_log), fork.clock.now_ns, controller.stats()))
            assert warm or controller._plan_memo  # the cold fork rebuilt its layouts
        assert states[0] == states[1]
        assert len(states[0][0]) > len(machine.controller.flip_log)  # the re-hammers flipped


class TestFlipLogIsolation:
    """The frozen flip log rides outside the blob; forks never share appends."""

    @pytest.fixture(scope="class")
    def templated(self):
        machine = TestVictimPlanMemo._templated_machine()
        assert machine.controller.flip_log  # non-vacuous: templating flipped bits
        return machine

    @staticmethod
    def _flip_again(machine):
        """Flip the first logged cell back through the controller's flip path."""
        controller = machine.controller
        event = controller.flip_log[0]
        bit = (controller.memory.read(event.phys_addr, 1)[0] >> event.bit_in_byte) & 1
        return controller._flip(event.bank_key, event.row, event.phys_addr, event.bit_in_byte, bit)

    def _check_isolation(self, snapshot, log):
        fork_a, _ = snapshot.fork()
        fork_b, _ = snapshot.fork(seed=3)
        assert fork_a.controller.flip_log == log
        assert fork_b.controller.flip_log == log
        assert fork_a.controller.flip_log is not fork_b.controller.flip_log
        flip = self._flip_again(fork_a)
        assert fork_a.controller.flip_log == log + [flip]
        assert fork_b.controller.flip_log == log
        assert list(snapshot._flip_log) == log
        later, _ = snapshot.fork()
        assert later.controller.flip_log == log

    def test_forks_start_from_the_snapshot_log(self, templated):
        snapshot = templated.snapshot()
        fork, _ = snapshot.fork()
        log = templated.controller.flip_log
        assert fork.controller.flip_log == log
        # The frozen events are shared, not copied.
        assert all(a is b for a, b in zip(fork.controller.flip_log, snapshot._flip_log))

    def test_appends_stay_in_their_fork(self, templated):
        self._check_isolation(templated.snapshot(), list(templated.controller.flip_log))

    def test_appends_stay_in_their_fork_after_shipping(self, templated):
        snapshot = templated.snapshot()
        shipped = MachineSnapshot.from_bytes(snapshot.to_bytes())
        self._check_isolation(shipped, list(templated.controller.flip_log))

    def test_live_machine_appends_do_not_reach_the_snapshot(self, templated):
        log = list(templated.controller.flip_log)
        fork, _ = templated.snapshot().fork()
        snapshot = fork.snapshot()
        self._flip_again(fork)
        assert list(snapshot._flip_log) == log
        assert snapshot.fork()[0].controller.flip_log == log

    def test_flip_events_stay_out_of_the_blob(self, templated):
        assert b"FlipEvent" not in templated.snapshot()._blob


class TestPageTableIsolation:
    """Page tables are plain values in the blob; forks never share them."""

    PAGES = 8

    @pytest.fixture(scope="class")
    def warm(self):
        """A machine with dirty, clean and unpopulated pages in one task."""
        machine = Machine(MachineConfig.small(seed=0))
        kernel = machine.kernel
        pid = kernel.spawn("tenant").pid
        dirty = kernel.sys_mmap(pid, self.PAGES * PAGE_SIZE)
        kernel.mem_write(pid, dirty, b"\x5a" * (self.PAGES // 2) * PAGE_SIZE)
        clean = kernel.sys_mmap(pid, self.PAGES * PAGE_SIZE, populate=True)
        return machine, pid, dirty, clean

    @staticmethod
    def _table(machine, pid):
        return list(machine.kernel.task(pid).mm.page_table.walk())

    def _check_isolation(self, snapshot, pid, dirty, clean, before):
        fork_a, _ = snapshot.fork()
        fork_b, _ = snapshot.fork(seed=3)
        kernel = fork_a.kernel
        kernel.mem_read(pid, clean, PAGE_SIZE)  # sets an accessed bit
        kernel.mem_write(pid, clean + PAGE_SIZE, b"\x01")  # accessed and dirty
        kernel.mem_write(pid, dirty + (self.PAGES - 1) * PAGE_SIZE, b"\x02")  # a new mapping
        kernel.sys_munmap(pid, dirty, PAGE_SIZE)  # a removed mapping
        changed = self._table(fork_a, pid)
        assert changed != before
        bits = {va: (entry.accessed, entry.dirty) for va, entry in changed}
        assert bits[clean] == (True, False) and bits[clean + PAGE_SIZE] == (True, True)
        assert dirty not in bits and dirty + (self.PAGES - 1) * PAGE_SIZE in bits
        assert self._table(fork_b, pid) == before
        assert self._table(snapshot.fork()[0], pid) == before

    def test_fork_changes_stay_in_their_fork(self, warm):
        machine, pid, dirty, clean = warm
        before = self._table(machine, pid)
        assert any(entry.dirty for _, entry in before)
        assert any(not entry.accessed for _, entry in before)
        self._check_isolation(machine.snapshot(), pid, dirty, clean, before)
        assert self._table(machine, pid) == before

    def test_fork_changes_stay_in_their_fork_after_shipping(self, warm):
        machine, pid, dirty, clean = warm
        before = self._table(machine, pid)
        shipped = MachineSnapshot.from_bytes(machine.snapshot().to_bytes())
        self._check_isolation(shipped, pid, dirty, clean, before)

    def test_live_machine_changes_do_not_reach_the_snapshot(self, warm):
        machine, pid, dirty, clean = warm
        fork, _ = machine.snapshot().fork()
        before = self._table(fork, pid)
        snapshot = fork.snapshot()
        fork.kernel.mem_write(pid, clean + 2 * PAGE_SIZE, b"\x03")
        assert self._table(snapshot.fork()[0], pid) == before

    def test_no_entry_objects_in_the_blob(self, warm):
        assert b"PageTableEntry" not in warm[0].snapshot()._blob


class TestEventCoreIntegration:
    def test_refresh_dispatches_through_dram_queue(self):
        machine = Machine(MachineConfig.small(seed=0))
        refw = machine.controller.timing.t_refw_ns
        machine.run_until(3 * refw + 1)
        snap = machine.obs.metrics.snapshot()
        assert snap["sim.events.dispatched{queue=dram}"] >= 3

    def test_scheduler_ticks_through_os_queue(self):
        machine = Machine(MachineConfig.small(seed=0))
        machine.run_until(20 * MS)
        snap = machine.obs.metrics.snapshot()
        assert machine.scheduler.ticks == 20 * MS // machine.scheduler.TIMESLICE_NS
        assert snap["os.sched.ticks"] == machine.scheduler.ticks
        assert snap["sim.events.dispatched{queue=os}"] >= machine.scheduler.ticks

    def test_kswapd_wake_arms_mm_queue_event(self):
        machine = Machine(MachineConfig.small(seed=0))
        zone = next(iter(machine.node.zones.values()))
        machine.kswapd.wake(zone)
        assert machine.events.pending("mm") == 1
        machine.events.dispatch_due("mm")
        assert machine.kswapd.runs == 1
        assert machine.events.pending("mm") == 0
        snap = machine.obs.metrics.snapshot()
        assert snap["sim.events.dispatched{queue=mm}"] == 1

    def test_direct_reclaim_disarms_the_wake_event(self):
        machine = Machine(MachineConfig.small(seed=0))
        zone = next(iter(machine.node.zones.values()))
        machine.kswapd.wake(zone)
        machine.kswapd.run()  # OOM-path direct reclaim, out of band
        machine.events.dispatch_due("mm")
        assert machine.kswapd.runs == 1  # the armed event did not double-run

    def test_watchdog_scans_on_defense_queue(self):
        config = replace(MachineConfig.small(seed=0), watchdog=WatchdogConfig())
        machine = Machine(config)
        machine.run_until(200 * MS)
        snap = machine.obs.metrics.snapshot()
        assert machine.watchdog.scans >= 3
        assert snap["defense.watchdog.scans"] == machine.watchdog.scans
        assert snap["sim.events.dispatched{queue=defense}"] >= machine.watchdog.scans

    def test_syscalls_reach_chaos(self):
        machine = Machine(MachineConfig.small(seed=0))
        engine = ChaosEngine(machine.kernel, chaos_profile("steal"))
        machine.kernel.spawn("victim")
        snap = machine.obs.metrics.snapshot()
        assert snap["chaos.pumps"] >= 1
        assert engine is machine.kernel.chaos


@pytest.mark.slow
class TestCampaignForkEquivalence:
    def test_fork_campaign_matches_rebuild_digest(self):
        """The headline claim: forking a warm machine per attempt is
        bit-identical to rebuilding and re-templating per attempt."""
        campaign = AttackCampaign(vulnerable_config(seed=7), 2, attack_config=FAST)
        # Oracle: build and template a fresh machine for every attempt.
        hasher = hashlib.sha256()
        for index in range(campaign.attempts):
            machine, attack, candidates = campaign._warm()
            machine.rng.reseed(campaign._attempt_seed(index))
            report = AttackOrchestrator(
                attack, campaign.orchestrator_config, candidates=candidates
            ).run()
            hasher.update(report.to_json().encode("utf-8") + b"\n")
        result = campaign.run()
        assert result.successes == 2
        assert result.digest() == hasher.hexdigest()


class TestMachineClose:
    def test_close_cancels_every_pending_event(self):
        machine = Machine(MachineConfig.small(seed=0))
        handle = machine.events.schedule("probe", 10 * MS, lambda now: None, queue="os")
        assert machine.events.pending("dram") == 1 and handle.active
        machine.close()
        assert machine.events.pending() == 0
        assert not handle.active
        assert machine.run_until(machine.clock.now_ns + 10 * MS) == 0

    def test_exported_state_survives_close(self):
        machine = Machine(MachineConfig.small(seed=0))
        machine.controller.memory.write(0, b"x")
        state = machine.obs.metrics.snapshot()
        machine.close()
        assert machine.obs.metrics.snapshot()["sim.clock_ns"] == state["sim.clock_ns"]


@pytest.mark.slow
class TestAttemptsEnd:
    """A finished attempt and the warm machine are freed by refcount alone."""

    CAMPAIGNS = {
        "explframe": lambda: AttackCampaign(vulnerable_config(), 1, attack_config=FAST),
        "faultprobe": lambda: AttackCampaign(
            vulnerable_config(), 1, attack_config=FAST, modality="faultprobe"
        ),
        "evictframe-duet": lambda: AttackCampaign(
            vulnerable_config(),
            1,
            attack_config=EvictFrameConfig(templator=FAST.templator),
            modality="evictframe",
            scenario=scenario_preset("duet"),
        ),
        "explframe-storm": lambda: AttackCampaign(
            vulnerable_config(), 1, attack_config=FAST, chaos_profile="storm"
        ),
    }

    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_attempt_leaves_no_cyclic_garbage(self, name):
        campaign = self.CAMPAIGNS[name]()
        with collector_off():
            snapshot = campaign._warm_snapshot()
            assert repro_garbage() == []
            index, report, state, _, _ = campaign._run_attempt(snapshot, 0)
            assert repro_garbage() == []
        assert index == 0 and state
        assert report.seed == campaign._attempt_seed(0)


@pytest.mark.slow
class TestForkFootprint:
    """A fork builds its machine, not its telemetry's declarations."""

    #: A seed-7 explframe fork creates about 250 GC-tracked objects.
    #: Declaring every metric family per fork (an object and a dict per
    #: family, plus a gauge handle and a closure cell per collector-sourced
    #: value) put it at about 460.
    MAX_OBJECTS = 300

    @staticmethod
    def _fork(snapshot):
        machine, extras = snapshot.fork()
        extras["attack"].bind_obs(machine.obs)
        return machine

    def test_one_fork_creates_at_most_max_objects(self):
        snapshot = AttackCampaign(vulnerable_config(), 1, attack_config=FAST)._warm_snapshot()
        self._fork(snapshot).close()  # first-fork-only caches stay out of the count
        with collector_off():
            before = Counter(type(obj) for obj in gc.get_objects())
            machine = self._fork(snapshot)
            created = Counter(
                type(obj) for obj in gc.get_objects() if obj is not before
            ) - before
            machine.close()
        total = sum(created.values())
        by_type = {kind.__qualname__: n for kind, n in created.most_common(8)}
        assert total <= self.MAX_OBJECTS, f"{total} objects per fork: {by_type}"
