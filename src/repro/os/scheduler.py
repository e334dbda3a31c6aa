"""A minimal CPU placement scheduler.

The reproduction does not need timeslicing — experiments drive tasks
synchronously — but it does need *placement*: which CPU a task runs on
determines which per-CPU page frame cache its allocations and frees touch.
The scheduler assigns new tasks to the least-loaded allowed CPU, enforces
affinity masks on migration, and tracks per-CPU load so experiments can
model CPU co-residency (the attack's key precondition) and its absence.
"""

from __future__ import annotations

from repro.obs import NOOP_OBS
from repro.os.task import Task, TaskState
from repro.sim.errors import ConfigError


class Scheduler:
    """Tracks which tasks are resident on which CPU."""

    #: Default timeslice for event-driven tick accounting (CFS-ish 4 ms).
    TIMESLICE_NS = 4_000_000

    def __init__(self, num_cpus: int):
        if num_cpus <= 0:
            raise ConfigError(f"num_cpus must be positive, got {num_cpus}")
        self.num_cpus = num_cpus
        self._cpu_tasks: list[list[int]] = [[] for _ in range(num_cpus)]
        self.migrations = 0
        self.ticks = 0
        self.cpu_time_ns = [0] * num_cpus
        self._last_tick_ns = 0
        self._events = None
        self.bind_obs(NOOP_OBS)

    def bind_obs(self, obs) -> None:
        """Attach an observability hub (see docs/OBSERVABILITY.md)."""
        self.obs = obs
        self._m_migrations = obs.metrics.counter("os.sched.migrations")
        self._m_ticks = obs.metrics.counter("os.sched.ticks")

    def bind_events(self, events, timeslice_ns: int | None = None) -> None:
        """Account CPU time on a recurring scheduler tick (queue ``"os"``).

        Pure bookkeeping — placement decisions stay synchronous — so the
        tick never perturbs the simulation, it only attributes elapsed
        sim-time to the CPUs that had runnable tasks.
        """
        self._events = events
        self._last_tick_ns = events.clock.now_ns
        period = timeslice_ns or self.TIMESLICE_NS
        events.schedule_in(
            "os.sched.tick", period, self._on_tick, queue="os", period_ns=period
        )

    def _on_tick(self, now_ns: int) -> None:
        elapsed = now_ns - self._last_tick_ns
        self._last_tick_ns = now_ns
        for cpu, pids in enumerate(self._cpu_tasks):
            if pids:
                self.cpu_time_ns[cpu] += elapsed
        self.ticks += 1
        self._m_ticks.inc()

    def _check_cpu(self, cpu: int) -> None:
        if not 0 <= cpu < self.num_cpus:
            raise ConfigError(f"cpu {cpu} out of range [0, {self.num_cpus})")

    def all_cpus(self) -> frozenset[int]:
        """The full affinity mask."""
        return frozenset(range(self.num_cpus))

    def pick_cpu(self, allowed: frozenset[int]) -> int:
        """Least-loaded CPU within ``allowed`` (lowest id breaks ties)."""
        candidates = sorted(allowed)
        if not candidates:
            raise ConfigError("empty affinity mask")
        for cpu in candidates:
            self._check_cpu(cpu)
        return min(candidates, key=lambda cpu: (len(self._cpu_tasks[cpu]), cpu))

    def place(self, task: Task) -> None:
        """Put a (new) task on its CPU's run list."""
        self._check_cpu(task.cpu)
        if task.pid in self._cpu_tasks[task.cpu]:
            raise ConfigError(f"pid {task.pid} already placed on cpu {task.cpu}")
        self._cpu_tasks[task.cpu].append(task.pid)

    def remove(self, task: Task) -> None:
        """Take the task off its CPU (exit or sleep)."""
        try:
            self._cpu_tasks[task.cpu].remove(task.pid)
        except ValueError:
            raise ConfigError(f"pid {task.pid} not on cpu {task.cpu}") from None

    def migrate(self, task: Task, new_cpu: int) -> None:
        """Move a task to ``new_cpu`` (must be in its affinity mask)."""
        self._check_cpu(new_cpu)
        if new_cpu not in task.allowed_cpus:
            raise ConfigError(
                f"cpu {new_cpu} not in pid {task.pid}'s affinity "
                f"{sorted(task.allowed_cpus)}"
            )
        if new_cpu == task.cpu:
            return
        if task.state is TaskState.RUNNING:
            self.remove(task)
            task.cpu = new_cpu
            self.place(task)
        else:
            task.cpu = new_cpu
        self.migrations += 1
        self._m_migrations.inc()

    def load(self, cpu: int) -> int:
        """Number of runnable tasks on ``cpu``."""
        self._check_cpu(cpu)
        return len(self._cpu_tasks[cpu])

    def __repr__(self) -> str:
        loads = {cpu: len(pids) for cpu, pids in enumerate(self._cpu_tasks)}
        return f"Scheduler(loads={loads})"
