"""Capabilities, tasks and the placement scheduler."""

import pytest

from repro.os.capabilities import Capability, CapabilitySet
from repro.os.scheduler import Scheduler
from repro.os.task import Task, TaskState
from repro.sim.errors import ConfigError


class TestCapabilities:
    def test_unprivileged_has_nothing(self):
        caps = CapabilitySet.unprivileged()
        assert not caps.has(Capability.CAP_SYS_ADMIN)

    def test_root_has_everything(self):
        caps = CapabilitySet.root()
        for cap in Capability:
            assert caps.has(cap)

    def test_equality_and_hash(self):
        a = CapabilitySet({Capability.CAP_SYS_NICE})
        b = CapabilitySet({Capability.CAP_SYS_NICE})
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_sorted(self):
        assert "CAP_SYS_ADMIN" in repr(CapabilitySet.root())


class TestTask:
    def test_defaults(self):
        task = Task(pid=100, name="t", cpu=0, allowed_cpus=frozenset({0}))
        assert task.state is TaskState.RUNNING
        assert not task.caps.has(Capability.CAP_SYS_ADMIN)

    def test_cpu_must_be_allowed(self):
        with pytest.raises(ConfigError):
            Task(pid=100, name="t", cpu=1, allowed_cpus=frozenset({0}))

    def test_positive_pid(self):
        with pytest.raises(ConfigError):
            Task(pid=0, name="t", cpu=0, allowed_cpus=frozenset({0}))


class TestScheduler:
    def make(self, cpus=2):
        return Scheduler(cpus)

    def make_task(self, pid, cpu=0, allowed=None):
        return Task(
            pid=pid,
            name=f"t{pid}",
            cpu=cpu,
            allowed_cpus=allowed or frozenset({0, 1}),
        )

    def test_pick_least_loaded(self):
        sched = self.make()
        t1 = self.make_task(101, cpu=0)
        sched.place(t1)
        assert sched.pick_cpu(frozenset({0, 1})) == 1

    def test_pick_respects_mask(self):
        sched = self.make()
        t1 = self.make_task(101, cpu=0)
        sched.place(t1)
        assert sched.pick_cpu(frozenset({0})) == 0

    def test_empty_mask_rejected(self):
        with pytest.raises(ConfigError):
            self.make().pick_cpu(frozenset())

    def test_place_and_load(self):
        sched = self.make()
        sched.place(self.make_task(101, cpu=1))
        assert sched.load(1) == 1

    def test_double_place_rejected(self):
        sched = self.make()
        task = self.make_task(101)
        sched.place(task)
        with pytest.raises(ConfigError):
            sched.place(task)

    def test_migrate(self):
        sched = self.make()
        task = self.make_task(101, cpu=0)
        sched.place(task)
        sched.migrate(task, 1)
        assert task.cpu == 1
        assert sched.load(0) == 0
        assert sched.load(1) == 1
        assert sched.migrations == 1

    def test_migrate_outside_affinity_rejected(self):
        sched = self.make()
        task = self.make_task(101, cpu=0, allowed=frozenset({0}))
        sched.place(task)
        with pytest.raises(ConfigError):
            sched.migrate(task, 1)

    def test_migrate_same_cpu_noop(self):
        sched = self.make()
        task = self.make_task(101, cpu=0)
        sched.place(task)
        sched.migrate(task, 0)
        assert sched.migrations == 0

    def test_migrate_sleeping_task(self):
        sched = self.make()
        task = self.make_task(101, cpu=0)
        sched.place(task)
        sched.remove(task)
        task.state = TaskState.SLEEPING
        sched.migrate(task, 1)
        assert task.cpu == 1
        assert sched.load(1) == 0  # sleeping tasks are not on run lists

    def test_remove_missing_rejected(self):
        sched = self.make()
        with pytest.raises(ConfigError):
            sched.remove(self.make_task(101))

    def test_cpu_bounds(self):
        sched = self.make()
        with pytest.raises(ConfigError):
            sched.load(2)
        with pytest.raises(ConfigError):
            Scheduler(0)
