"""Task (process) model.

A task owns an address space, a capability set, a CPU affinity mask and a
scheduler state.  Two states matter to the attack:

* ``RUNNING`` — the task is resident on its CPU; its frees feed that CPU's
  page frame cache and its small allocations drain it;
* ``SLEEPING`` — the paper warns the adversary must *not* sleep, because
  the page-frame-cache state it set up is lost while it is away (other
  work runs on the CPU and consumes/drains the cache).  The kernel
  realises this by draining the CPU's caches when a task goes to sleep.
"""

from __future__ import annotations

import enum

from repro.os.capabilities import CapabilitySet
from repro.sim.errors import ConfigError
from repro.vm.address_space import AddressSpace


class TaskState(enum.Enum):
    """Scheduler state of a task."""

    RUNNING = "running"
    SLEEPING = "sleeping"
    EXITED = "exited"


class Task:
    """One simulated process."""

    def __init__(
        self,
        pid: int,
        name: str,
        cpu: int,
        allowed_cpus: frozenset[int],
        caps: CapabilitySet | None = None,
    ):
        if pid <= 0:
            raise ConfigError(f"pid must be positive, got {pid}")
        if cpu not in allowed_cpus:
            raise ConfigError(f"cpu {cpu} not in affinity mask {sorted(allowed_cpus)}")
        self.pid = pid
        self.name = name
        self.cpu = cpu
        self.allowed_cpus = allowed_cpus
        self.caps = caps or CapabilitySet.unprivileged()
        self.state = TaskState.RUNNING
        self.mm = AddressSpace()
        self.syscall_count = 0
        self.minor_faults = 0

    def __repr__(self) -> str:
        return (
            f"Task(pid={self.pid}, name={self.name!r}, cpu={self.cpu}, "
            f"state={self.state.value})"
        )
