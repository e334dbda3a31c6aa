"""Stateful property testing of the whole allocator stack.

A hypothesis rule-based machine drives random interleavings of task
spawns, mmaps, touches, munmaps, sleeps and churn across two CPUs, and
checks the global invariants after every step:

* frame conservation — free (buddy + pcp) + allocated == total;
* no frame owned by two tasks;
* every resident page of every task translates to a frame the allocator
  believes is allocated;
* rss never exceeds the virtual size;
* every frame of every block on a buddy free list is ``FREE_BUDDY`` and
  every frame on a pcp list is ``ON_PCP``, both with no owner (the buddy
  allocator relies on this to write only the head of a split-off half
  or a merged buddy).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis import strategies as st
import numpy as np

from repro.core import Machine, MachineConfig
from repro.mm.page import _NO_OWNER, FREE_BUDDY, ON_PCP, PageFlags
from repro.os.task import TaskState
from repro.sim.errors import OutOfMemoryError
from repro.sim.units import PAGE_SIZE


class AllocatorStack(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.machine = Machine(MachineConfig.small(seed=99))
        self.kernel = self.machine.kernel
        self.tasks = []  # live (running or sleeping) pids
        self.regions = {}  # pid -> list of (va, pages)

    # -- rules ---------------------------------------------------------------

    @rule(cpu=st.integers(min_value=0, max_value=1))
    def spawn(self, cpu):
        if len(self.tasks) >= 6:
            return
        task = self.kernel.spawn(f"t{len(self.tasks)}", cpu=cpu)
        self.tasks.append(task.pid)
        self.regions[task.pid] = []

    @precondition(lambda self: self.tasks)
    @rule(data=st.data(), pages=st.integers(min_value=1, max_value=32))
    def mmap_and_touch(self, data, pages):
        pid = data.draw(st.sampled_from(self.tasks))
        task = self.kernel.tasks[pid]
        if task.state is not TaskState.RUNNING:
            return
        try:
            va = self.kernel.sys_mmap(pid, pages * PAGE_SIZE)
            for index in range(pages):
                self.kernel.mem_write(pid, va + index * PAGE_SIZE, b"\x5a")
        except OutOfMemoryError:
            return
        self.regions[pid].append((va, pages))

    @precondition(lambda self: any(self.regions.values()))
    @rule(data=st.data())
    def munmap_region(self, data):
        candidates = [pid for pid in self.tasks if self.regions[pid]]
        if not candidates:
            return
        pid = data.draw(st.sampled_from(candidates))
        task = self.kernel.tasks[pid]
        if task.state is not TaskState.RUNNING:
            return
        va, pages = self.regions[pid].pop()
        self.kernel.sys_munmap(pid, va, pages * PAGE_SIZE)

    @precondition(lambda self: self.tasks)
    @rule(data=st.data())
    def sleep_and_wake(self, data):
        pid = data.draw(st.sampled_from(self.tasks))
        task = self.kernel.tasks[pid]
        if task.state is TaskState.RUNNING:
            self.kernel.sys_sleep(pid)
        else:
            self.kernel.sys_wake(pid)

    @precondition(lambda self: self.tasks)
    @rule(data=st.data(), pages=st.integers(min_value=1, max_value=16))
    def churn(self, data, pages):
        pid = data.draw(st.sampled_from(self.tasks))
        task = self.kernel.tasks[pid]
        if task.state is not TaskState.RUNNING:
            return
        try:
            self.kernel.churn(pid, pages)
        except OutOfMemoryError:
            return

    @precondition(lambda self: len(self.tasks) > 1)
    @rule(data=st.data())
    def exit_task(self, data):
        pid = data.draw(st.sampled_from(self.tasks))
        task = self.kernel.tasks[pid]
        if task.state is not TaskState.RUNNING:
            self.kernel.sys_wake(pid)
        self.kernel.sys_exit(pid)
        self.tasks.remove(pid)
        del self.regions[pid]

    # -- invariants -------------------------------------------------------------

    @invariant()
    def frames_conserved(self):
        node = self.machine.node
        allocated = self.machine.frames.count_state(PageFlags.ALLOCATED)
        assert node.free_pages + allocated == node.total_pages

    @invariant()
    def no_double_ownership(self):
        owners = {}
        for pid in self.tasks:
            task = self.kernel.tasks[pid]
            for pfn in task.mm.resident_pfns():
                assert pfn not in owners, f"pfn {pfn:#x} owned by {owners[pfn]} and {pid}"
                owners[pfn] = pid

    @invariant()
    def resident_pages_are_allocated(self):
        for pid in self.tasks:
            task = self.kernel.tasks[pid]
            for pfn in task.mm.resident_pfns():
                frame = self.machine.frames[pfn]
                assert frame.flags is PageFlags.ALLOCATED
                assert frame.owner_pid == pid

    @invariant()
    def free_frames_are_unowned(self):
        # Whole-table checks over the descriptor columns: one view per frame
        # would build 16 K views on every step of the 16 K-frame machine.
        frames = self.machine.frames
        state = np.frombuffer(frames._flags, dtype=np.uint8)
        owner = np.frombuffer(frames._owner, dtype=np.int64)
        buddy_free = np.zeros(len(state), dtype=bool)
        on_pcp = np.zeros(len(state), dtype=bool)
        for zone in self.machine.node.zones.values():
            for order, heads in enumerate(zone.buddy.free_lists):
                for head in heads:
                    buddy_free[head:head + (1 << order)] = True
            for cpu in range(zone.num_cpus):
                on_pcp[zone.pcp(cpu).snapshot()] = True
        assert (state[buddy_free] == FREE_BUDDY).all()
        assert (state[on_pcp] == ON_PCP).all()
        assert (owner[buddy_free | on_pcp] == _NO_OWNER).all()

    @invariant()
    def rss_bounded_by_vsz(self):
        for pid in self.tasks:
            task = self.kernel.tasks[pid]
            assert 0 <= task.mm.rss_pages <= task.mm.virtual_pages()


AllocatorStack.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestAllocatorStack = AllocatorStack.TestCase
