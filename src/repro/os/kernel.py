"""The kernel facade: syscalls, demand paging, and the memory access path.

This class plays the role Linux plays in the paper: it owns the zoned page
frame allocator (and with it each CPU's page frame cache), handles mmap /
munmap / page faults, and routes every load and store through the CPU
cache into the DRAM controller.  The attack code talks *only* to this
facade, through the same interface contour real attack code has: mmap,
munmap, memory reads/writes, clflush, sched_setaffinity, and pagemap.

Design notes (all mirroring documented kernel behaviour):

* **Demand paging** — ``mmap`` reserves virtual space; a *write* fault
  allocates a zeroed frame through the allocator (order-0 -> the faulting
  CPU's page frame cache).  A *read* of an unpopulated anonymous page
  returns zeros without allocating (the shared zero page), matching the
  paper's observation that frames are only allocated once data is stored.
* **munmap -> pcp** — frames released by ``munmap`` are freed order-0 on
  the caller's CPU, landing on the hot end of that CPU's page frame cache.
  This is the channel the attack steers through.
* **Sleep drains the cache** — when a task sleeps, the kernel drains its
  CPU's page frame caches (the simulator's deterministic stand-in for the
  paper's warning that a sleeping adversary loses the cache state it
  staged).
* **clflush** — evicts a line from the CPU cache so the next access
  reaches DRAM; the hammer fast path requires it, exactly as on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from repro.dram.cache import CpuCache
from repro.dram.controller import HammerResult, MemoryController
from repro.mm.allocator import AllocationRequest, ZonedPageFrameAllocator
from repro.mm.reclaim import Kswapd
from repro.defense.watchdog import ActivationLedger
from repro.obs import NOOP_OBS
from repro.os.capabilities import CapabilitySet
from repro.os.pagecache import PageCache
from repro.os.scheduler import Scheduler
from repro.os.task import Task, TaskState
from repro.sim.clock import SimClock
from repro.sim.errors import ConfigError, FaultError, OutOfMemoryError, SegmentationFault
from repro.sim.events import EventScheduler
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE, page_align_down
from repro.vm.pagemap import Pagemap
from repro.vm.vma import Protection, VmaFlags

# Cost of an access served by the CPU cache (ns of simulated time).
CACHE_HIT_NS = 1


@dataclass
class EvictHammerResult:
    """Outcome of one eviction-based hammer call (``sys_hammer_evict``).

    Extends the plain :class:`HammerResult` accounting with the two numbers
    that distinguish eviction-based hammering from clflush-based hammering:
    how often the aggressor access actually reached DRAM (the traversal
    evicted it — ``eviction_accuracy``), and how many row activations were
    spent on the eviction-set lines themselves rather than the aggressors
    (``wasted_activations``).
    """

    rounds: int
    accesses: int
    activations: int
    elapsed_ns: int
    flips: list = field(default_factory=list)
    aggressor_accesses: int = 0
    aggressor_misses: int = 0
    traversal_accesses: int = 0
    traversal_misses: int = 0
    wasted_activations: int = 0

    @property
    def eviction_accuracy(self) -> float:
        """Fraction of aggressor accesses that reached DRAM (1.0 = clflush-grade)."""
        if not self.aggressor_accesses:
            return 0.0
        return self.aggressor_misses / self.aggressor_accesses


@dataclass
class KernelStats:
    """Aggregate syscall and fault counters."""

    syscalls: int = 0
    page_faults: int = 0
    mmap_calls: int = 0
    munmap_calls: int = 0
    frames_faulted_in: int = 0
    frames_freed: int = 0
    # Load/store ranges served as one page run, and the lines they covered.
    page_runs: int = 0
    page_run_lines: int = 0
    # Whole-page ranges served as one multi-page stream, and their lines.
    streams: int = 0
    stream_lines: int = 0


class Kernel:
    """Syscall surface and policy glue over the substrates."""

    def __init__(
        self,
        allocator: ZonedPageFrameAllocator,
        controller: MemoryController,
        cache: CpuCache,
        clock: SimClock,
        scheduler: Scheduler,
        kswapd: Kswapd,
        events: EventScheduler,
    ):
        self.allocator = allocator
        self.controller = controller
        self.cache = cache
        self.clock = clock
        self.scheduler = scheduler
        self.kswapd = kswapd
        self.page_cache = PageCache(allocator, controller.memory, kswapd, controller)
        self.tasks: dict[int, Task] = {}
        self._next_pid = 100
        self.stats = KernelStats()
        # Per-(window, task) DRAM activation accounting, consumed by the
        # HammerWatchdog (repro.defense) — the software detection layer.
        self.ledger = ActivationLedger()
        # Optional chaos-injection engine (repro.sim.chaos).  When attached,
        # well-defined syscall hooks pump it so adversity events fire
        # deterministically inside the simulation, not around it.
        self.chaos = None
        # Syscall hooks drain the os/defense/workload scheduler queues,
        # then pump an attached chaos engine.
        self.events = events
        self.bind_obs(NOOP_OBS)

    def bind_obs(self, obs) -> None:
        """Attach an observability hub (see docs/OBSERVABILITY.md).

        Syscalls are counted live per call name (they are orders of
        magnitude rarer than memory accesses); the memory access path
        itself (:meth:`_touch_lines`) stays uninstrumented — its totals
        are collector-sourced from :class:`KernelStats`.
        """
        self.obs = obs
        metrics = obs.metrics
        sys_counter = metrics.counter  # registered per label below
        self._m_sys_mmap = sys_counter("os.syscalls", labels={"call": "mmap"})
        self._m_sys_munmap = sys_counter("os.syscalls", labels={"call": "munmap"})
        self._m_sys_sleep = sys_counter("os.syscalls", labels={"call": "sleep"})
        self._m_sys_affinity = sys_counter(
            "os.syscalls", labels={"call": "sched_setaffinity"}
        )
        self._m_sys_clflush = sys_counter("os.syscalls", labels={"call": "clflush"})
        self._m_sys_hammer = sys_counter("os.syscalls", labels={"call": "hammer"})
        self._m_sys_hammer_evict = sys_counter(
            "os.syscalls", labels={"call": "hammer_evict"}
        )
        self._m_sys_file_read = sys_counter(
            "os.syscalls", labels={"call": "file_read"}
        )
        self._m_faults = metrics.counter("os.page_faults")
        self._m_spawns = metrics.counter("os.tasks.spawned")
        metrics.add_collector(self._metric_values)

    def _metric_values(self) -> dict:
        """The ``os.*`` and ``sim.shortcut.*`` gauges kept in :class:`KernelStats`."""
        stats = self.stats
        return {
            "os.frames_freed": stats.frames_freed,
            "os.syscalls_total": stats.syscalls,
            "sim.shortcut.page_runs": stats.page_runs,
            "sim.shortcut.page_run_lines": stats.page_run_lines,
            "sim.shortcut.streams": stats.streams,
            "sim.shortcut.stream_lines": stats.stream_lines,
        }

    def _pump_chaos(self, hook: str, pid: int) -> None:
        # Timed work parked on the os/defense queues drains first; tenant
        # request streams (repro.workload) ride the same pump, a no-op until
        # a scenario schedules on the queue.  The chaos engine sees the hook
        # last.
        self.events.dispatch_due("os")
        self.events.dispatch_due("defense")
        self.events.dispatch_due("workload")
        if self.chaos is not None:
            self.chaos.pump(hook, pid)

    def _account_activations(self, pid: int, activations: int) -> None:
        if activations > 0:
            self.ledger.record(self.controller.current_refresh_epoch(), pid, activations)

    def _hammer_burst(self, pid: int, pas: list[int], rounds: int) -> HammerResult:
        """One bulk controller hammer, its activations charged to ``pid``.

        The burst's activations are attributed evenly over the refresh
        windows it spanned, for the watchdog's per-window accounting.
        """
        start_epoch = self.controller.current_refresh_epoch()
        result = self.controller.hammer(pas, rounds)
        end_epoch = self.controller.current_refresh_epoch()
        windows = max(1, end_epoch - start_epoch + 1)
        share = result.activations // windows
        for epoch in range(start_epoch, start_epoch + windows):
            self.ledger.record(epoch, pid, share)
        return result

    def _maybe_run_kswapd(self) -> None:
        """Run pending reclaim work (synchronous stand-in for the daemon).

        A kswapd wake arms a due-now event on the "mm" queue; draining it
        here runs reclaim at fault and file-read time.
        """
        self.events.dispatch_due("mm")

    # -- process management ---------------------------------------------------

    def spawn(
        self,
        name: str,
        cpu: int | None = None,
        affinity: frozenset[int] | None = None,
        caps: CapabilitySet | None = None,
    ) -> Task:
        """Create a task and place it on a CPU (least-loaded if unspecified)."""
        allowed = affinity or self.scheduler.all_cpus()
        chosen = cpu if cpu is not None else self.scheduler.pick_cpu(allowed)
        if cpu is not None and affinity is None:
            allowed = frozenset({cpu})
        pid = self._next_pid
        self._next_pid += 1
        task = Task(pid=pid, name=name, cpu=chosen, allowed_cpus=allowed, caps=caps)
        self.tasks[pid] = task
        self.scheduler.place(task)
        self._m_spawns.inc()
        self._pump_chaos("spawn", pid)
        return task

    def task(self, pid: int) -> Task:
        """Look up a live task by pid."""
        try:
            task = self.tasks[pid]
        except KeyError:
            raise ConfigError(f"no such pid {pid}") from None
        if task.state is TaskState.EXITED:
            raise ConfigError(f"pid {pid} has exited")
        return task

    def sys_exit(self, pid: int) -> int:
        """Terminate a task, releasing every resident frame; returns count."""
        task = self.task(pid)
        freed = 0
        for vma in list(task.mm.vmas):
            freed += self.sys_munmap(pid, vma.start, vma.length)
        if task.state is TaskState.RUNNING:
            self.scheduler.remove(task)
        task.state = TaskState.EXITED
        return freed

    # -- scheduling syscalls ---------------------------------------------------

    def sys_sched_setaffinity(self, pid: int, cpus: frozenset[int]) -> None:
        """Restrict a task to ``cpus``, migrating it if needed."""
        task = self.task(pid)
        task.syscall_count += 1
        self.stats.syscalls += 1
        self._m_sys_affinity.inc()
        if not cpus:
            raise ConfigError("affinity mask must not be empty")
        task.allowed_cpus = frozenset(cpus)
        if task.cpu not in task.allowed_cpus:
            old_cpu = task.cpu
            self.scheduler.migrate(task, self.scheduler.pick_cpu(task.allowed_cpus))
            self.obs.tracer.instant(
                "os.migrate", "os", pid=pid, from_cpu=old_cpu, to_cpu=task.cpu
            )

    def sys_sleep(self, pid: int) -> int:
        """Put a task to sleep; drains its CPU's page frame caches.

        Returns the number of cached frames that were lost — the cost the
        paper warns about.  (While the task is away, the CPU runs other
        work that consumes and recycles the per-CPU lists; draining is the
        deterministic equivalent.)
        """
        task = self.task(pid)
        task.syscall_count += 1
        self.stats.syscalls += 1
        self._m_sys_sleep.inc()
        self._pump_chaos("sleep", pid)
        if task.state is TaskState.SLEEPING:
            return 0
        self.scheduler.remove(task)
        task.state = TaskState.SLEEPING
        return self.allocator.drain_cpu_caches(task.cpu)

    def sys_wake(self, pid: int) -> None:
        """Return a sleeping task to its CPU."""
        task = self.task(pid)
        if task.state is not TaskState.SLEEPING:
            return
        task.state = TaskState.RUNNING
        self.scheduler.place(task)

    # -- mmap / munmap -------------------------------------------------------------

    def sys_mmap(
        self,
        pid: int,
        length: int,
        prot: Protection = Protection.rw(),
        populate: bool = False,
        name: str = "anon",
    ) -> int:
        """Map anonymous memory; returns the starting virtual address."""
        task = self.task(pid)
        task.syscall_count += 1
        self.stats.syscalls += 1
        self.stats.mmap_calls += 1
        self._m_sys_mmap.inc()
        self._pump_chaos("mmap", pid)
        with self.obs.tracer.span(
            "os.mmap", "os", pid=pid, pages=length // PAGE_SIZE or 1
        ):
            flags = VmaFlags.ANONYMOUS
            if populate:
                flags |= VmaFlags.POPULATE
            vma = task.mm.mmap(length, prot=prot, flags=flags, name=name)
            if populate:
                for va in vma.page_addresses():
                    self._fault_in(task, va)
        return vma.start

    def sys_munmap(self, pid: int, va: int, length: int) -> int:
        """Unmap [va, va+length); returns the number of frames released.

        Released frames are freed order-0 on the calling task's CPU — they
        land on the hot end of that CPU's page frame cache, which is the
        mechanism Section V of the paper exploits.
        """
        task = self.task(pid)
        task.syscall_count += 1
        self.stats.syscalls += 1
        self.stats.munmap_calls += 1
        self._m_sys_munmap.inc()
        with self.obs.tracer.span("os.munmap", "os", pid=pid) as span:
            # Two pump points bracket the free: "munmap-pre" fires before any
            # frame moves (a migration here sends the frames to another CPU's
            # cache), "munmap" fires after they landed (pressure here buries
            # them under competitor churn).
            self._pump_chaos("munmap-pre", pid)
            detached = task.mm.munmap(va, length)
            for _, pfn in detached:
                self.allocator.free_pages(pfn, 0, cpu=task.cpu)
                self.stats.frames_freed += 1
            self._pump_chaos("munmap", pid)
            span.set("frames", len(detached))
        return len(detached)

    # -- demand paging ----------------------------------------------------------

    def _fault_in(self, task: Task, va: int) -> int:
        """Handle a write fault: allocate a zeroed frame and map it."""
        page_va = page_align_down(va)
        vma = task.mm.vma_at(page_va)
        if vma is None:
            raise SegmentationFault(
                f"pid {task.pid} touched unmapped va {va:#x}", address=va, pid=task.pid
            )
        self._maybe_run_kswapd()
        request = AllocationRequest(order=0, cpu=task.cpu, owner_pid=task.pid)
        try:
            pfn = self.allocator.alloc_pages(request)
        except OutOfMemoryError:
            # Direct reclaim: force a kswapd pass and retry once.
            for node in self.allocator.nodes:
                for zone in node.zones.values():
                    self.kswapd.wake(zone)
            self.kswapd.run()
            pfn = self.allocator.alloc_pages(request)
        # Anonymous memory is delivered zeroed: the kernel's clear_page
        # rewrites every cell, which also re-arms any weak cells whose
        # resting value differs from zero.
        self.controller.memory.clear_frame(pfn)
        task.mm.attach_frame(page_va, pfn)
        task.minor_faults += 1
        self.stats.page_faults += 1
        self.stats.frames_faulted_in += 1
        self._m_faults.inc()
        return pfn

    def resolve_pa(self, pid: int, va: int, *, fault: bool = False) -> int:
        """Translate ``va`` in ``pid``'s address space to a physical address.

        With ``fault=True``, a missing translation inside a valid VMA is
        faulted in first (write-fault semantics).
        """
        task = self.task(pid)
        if not task.mm.page_table.is_mapped(page_align_down(va)):
            if not fault:
                raise SegmentationFault(
                    f"va {va:#x} not resident for pid {pid}", address=va, pid=pid
                )
            self._fault_in(task, va)
        return task.mm.page_table.translate(va)

    # -- the load/store path -----------------------------------------------------

    def _touch_lines(self, pa: int, length: int, pid: int | None = None) -> None:
        """Run the cache-line accesses for a physical byte range.

        A range of ``count`` lines is served as one page run, exactly equal
        to :meth:`_touch_lines_each`, when all of these hold:

        * ``count >= 2`` (a single line gains nothing);
        * ``count <= sets``, so every line lands in its own cache set;
        * the range sits inside one ``row_bytes``-aligned block, which is
          one (bank, row) under every mapping (the column field holds the
          low address bits);
        * no timed DRAM behaviour is due before ``now + count * step``,
          where ``step`` bounds one line's cost, so no refresh can fire
          between the lines.

        The cache updates the distinct sets in one pass; the lines that
        missed then reach DRAM as one row run
        (:meth:`~repro.dram.controller.MemoryController.access_row_run`).
        Cache hits before the first miss are timed first, so a row
        activation evaluates flips at the same instant as on the per-line
        path; the remaining hit time follows.  Other shapes take the
        per-line loop, which also serves as the oracle in the tests.
        """
        line = self.cache.config.line_size
        first = pa - pa % line
        count = (pa + length - 1) // line - first // line + 1
        if not 2 <= count <= self.cache.config.sets or not self._page_run_fits(first, count):
            self._touch_lines_each(pa, length, pid)
            return
        hit_flags = self.cache.access_run(first, count)
        misses = hit_flags.count(False)
        activated = False
        if misses:
            lead = hit_flags.index(False)
            self.clock.advance(lead * CACHE_HIT_NS)
            activated = self.controller.access_row_run(first + lead * line, misses)
            self.clock.advance((count - misses - lead) * CACHE_HIT_NS)
        else:
            self.clock.advance(count * CACHE_HIT_NS)
        self.stats.page_runs += 1
        self.stats.page_run_lines += count
        if pid is not None:
            self._account_activations(pid, int(activated))

    def _page_run_fits(self, first: int, count: int) -> bool:
        """The row and refresh conditions of a page run (see :meth:`_touch_lines`)."""
        row_bytes = self.controller.geometry.row_bytes
        last = first + (count - 1) * self.cache.config.line_size
        if first // row_bytes != last // row_bytes:
            return False
        return self.controller.is_quiet_until(self._span_end_ns(count))

    def _span_end_ns(self, lines: int) -> int:
        """A bound on the clock after ``lines`` more line accesses."""
        timing = self.controller.timing
        return self.clock.now_ns + lines * max(timing.t_rc_ns, timing.t_cas_ns, CACHE_HIT_NS)

    def _stream(
        self,
        task: Task,
        va: int,
        pages: int,
        out: list[bytes] | None = None,
        data: memoryview | None = None,
    ) -> int:
        """Serve whole pages from page-aligned ``va`` as one stream; pages served.

        A load of up to ``pages`` pages (``data`` None; each page's bytes
        are appended to ``out``) or a store of ``data`` is served as one
        stream, exactly equal to one page run per page, when all of these
        hold:

        * the leading pages are resident (writable, for a store) and
          distinct, and hold more lines than the cache has sets; a
          non-resident page ends the stream;
        * a page is one page run: its lines tile whole cache sets and fit
          one DRAM row;
        * no timed DRAM behaviour is due, and no refresh window ends,
          before :meth:`_span_end_ns` of all those lines.

        Every line of a streamed page misses, so the cache takes all pages
        in one closed-form pass
        (:meth:`~repro.dram.cache.CpuCache.access_pages`), which stops
        before the first page that would hit.  Each page is then one row run
        on its mapped bank and row, at the instant its page run would start,
        and its bytes are read or stored right after it.  A row run that
        activates evaluates its neighbours only when the controller's no-flip
        certificate cannot rule a flip out
        (:meth:`~repro.dram.controller.MemoryController.access_row`).
        Returns 0 when the stream does not apply; the caller then serves one
        page itself.
        """
        config = self.cache.config
        lines = PAGE_SIZE // config.line_size
        if pages * lines <= config.sets or config.sets % lines:
            return 0
        controller = self.controller
        if controller.geometry.row_bytes < PAGE_SIZE:
            return 0
        table = task.mm.page_table
        pfns: dict[int, None] = {}
        for pfn in table.frames(va, pages, write=data is not None):
            if pfn in pfns:
                break
            pfns[pfn] = None
        end = self._span_end_ns(len(pfns) * lines)
        refw = controller.timing.t_refw_ns
        if (
            len(pfns) * lines <= config.sets
            or end // refw != self.clock.now_ns // refw
            or not controller.is_quiet_until(end)
        ):
            return 0
        pas = np.fromiter(pfns, np.int64, len(pfns)) << PAGE_SHIFT
        served = self.cache.access_pages(pas, lines)
        memory = controller.memory
        table.touch(va, served, write=data is not None)
        activations = 0
        for index, ((key, row), pfn) in enumerate(zip(controller.bank_rows(pas[:served]), pfns)):
            activations += controller.access_row(key, row, lines)
            if data is None:
                out.append(memory.frame_snapshot(pfn))
            else:
                page = data[index * PAGE_SIZE : (index + 1) * PAGE_SIZE]
                memory.write(pfn << PAGE_SHIFT, page)
        if served:
            self.stats.streams += 1
            self.stats.stream_lines += served * lines
            self._account_activations(task.pid, activations)
        return served

    def _touch_lines_each(self, pa: int, length: int, pid: int | None = None) -> None:
        """The per-line load/store loop: one cache and DRAM access per line."""
        line = self.cache.config.line_size
        first = (pa // line) * line
        last = ((pa + length - 1) // line) * line
        activations = 0
        for line_pa in range(first, last + 1, line):
            if self.cache.access(line_pa):
                self.clock.advance(CACHE_HIT_NS)
            elif self.controller.access(line_pa):
                activations += 1
        if pid is not None:
            self._account_activations(pid, activations)

    def mem_write(self, pid: int, va: int, data: bytes) -> None:
        """Store ``data`` at ``va``, faulting pages in as needed.

        Runs of whole, resident pages are served as streams
        (:meth:`_stream`); every other page takes its own page run.
        """
        task = self.task(pid)
        self._require_running(task)
        cursor = va
        view = memoryview(bytes(data))
        while view:
            page_va = page_align_down(cursor)
            offset = cursor - page_va
            if not offset:
                served = self._stream(task, cursor, len(view) // PAGE_SIZE, data=view)
                if served:
                    cursor += served * PAGE_SIZE
                    view = view[served * PAGE_SIZE :]
                    continue
            chunk = min(len(view), PAGE_SIZE - offset)
            if not task.mm.page_table.is_mapped(page_va):
                self._fault_in(task, cursor)
            pa = task.mm.page_table.translate(cursor, write=True)
            self._touch_lines(pa, chunk, pid=task.pid)
            self.controller.memory.write(pa, bytes(view[:chunk]))
            cursor += chunk
            view = view[chunk:]

    def mem_read(self, pid: int, va: int, length: int) -> bytes:
        """Load ``length`` bytes from ``va``.

        Reads of valid-but-unpopulated anonymous pages return zeros without
        allocating a frame (zero-page semantics).  Runs of whole, resident
        pages are served as streams (:meth:`_stream`); every other page
        takes its own page run.
        """
        if length < 0:
            raise ConfigError(f"length must be non-negative, got {length}")
        task = self.task(pid)
        self._require_running(task)
        out: list[bytes] = []
        cursor = va
        remaining = length
        while remaining > 0:
            page_va = page_align_down(cursor)
            offset = cursor - page_va
            if not offset:
                served = self._stream(task, cursor, remaining // PAGE_SIZE, out)
                if served:
                    cursor += served * PAGE_SIZE
                    remaining -= served * PAGE_SIZE
                    continue
            chunk = min(remaining, PAGE_SIZE - offset)
            if task.mm.page_table.is_mapped(page_va):
                pa = task.mm.page_table.translate(cursor)
                self._touch_lines(pa, chunk, pid=task.pid)
                out.append(self.controller.memory.read(pa, chunk))
            else:
                if task.mm.vma_at(page_va) is None:
                    raise SegmentationFault(
                        f"pid {pid} read unmapped va {cursor:#x}",
                        address=cursor,
                        pid=pid,
                    )
                out.append(bytes(chunk))  # shared zero page
            cursor += chunk
            remaining -= chunk
        return b"".join(out)

    def _require_running(self, task: Task) -> None:
        if task.state is not TaskState.RUNNING:
            raise ConfigError(f"pid {task.pid} is {task.state.value}, cannot run")

    # -- cache control and hammering -------------------------------------------------

    def sys_clflush(self, pid: int, va: int, length: int = 1) -> int:
        """Flush the cache lines covering [va, va+length); returns evictions."""
        task = self.task(pid)
        task.syscall_count += 1
        self.stats.syscalls += 1
        self._m_sys_clflush.inc()
        line = self.cache.config.line_size
        pa = self.resolve_pa(pid, va)
        first = (pa // line) * line
        last = ((pa + max(length, 1) - 1) // line) * line
        evicted = 0
        for line_pa in range(first, last + 1, line):
            if self.cache.flush(line_pa):
                evicted += 1
        return evicted

    @staticmethod
    def _hammer_target_pa(task: Task, va: int) -> int:
        """The physical address of a resident hammer target, in one page-table walk."""
        try:
            return task.mm.page_table.translate(va)
        except SegmentationFault:
            raise FaultError(
                f"hammer target va {va:#x} not resident; store data to it first"
            ) from None

    def sys_hammer(
        self,
        pid: int,
        vas: list[int],
        rounds: int,
        flush: bool = True,
    ) -> HammerResult:
        """Run ``rounds`` of the access(+clflush) loop over ``vas``.

        This is the bulk equivalent of the user-space loop

            loop: mov (va_a); mov (va_b); clflush (va_a); clflush (va_b)

        Every address must already be resident (write to it first — the
        paper notes frames only exist once data is stored).  With
        ``flush=False`` the loop degenerates: after the first round all
        accesses hit the CPU cache and DRAM sees almost nothing, which is
        the negative control showing why clflush is essential.
        """
        task = self.task(pid)
        self._require_running(task)
        task.syscall_count += 1
        self.stats.syscalls += 1
        self._m_sys_hammer.inc()
        if rounds <= 0:
            raise ConfigError(f"rounds must be positive, got {rounds}")
        if not vas:
            raise ConfigError("hammer needs at least one aggressor address")
        self._pump_chaos("hammer", pid)
        pas = [self._hammer_target_pa(task, va) for va in vas]
        if flush:
            for pa in pas:
                self.cache.flush(pa)
            return self._hammer_burst(pid, pas, rounds)
        # No clflush: first access of each line misses, the rest hit.
        activations = 0
        for pa in pas:
            if not self.cache.access(pa):
                if self.controller.access(pa):
                    activations += 1
        cached_accesses = (rounds - 1) * len(pas)
        self.clock.advance(cached_accesses * CACHE_HIT_NS)
        return HammerResult(
            rounds=rounds,
            accesses=rounds * len(pas),
            activations=activations,
            elapsed_ns=cached_accesses * CACHE_HIT_NS,
            flips=[],
        )

    def sys_hammer_evict(
        self,
        pid: int,
        aggressor_vas: list[int],
        eviction_vas: list[list[int]],
        rounds: int,
        pattern: str = "sequential",
    ) -> EvictHammerResult:
        """Hammer without clflush: evict the aggressors by cache-set traversal.

        The Rowhammer.js loop — each round accesses every aggressor and then
        walks its eviction set (addresses congruent to the aggressor's cache
        set), so the *next* round's aggressor access misses the LRU cache and
        reaches DRAM.  ``eviction_vas[i]`` is the set for ``aggressor_vas[i]``;
        ``pattern`` orders one round's accesses:

        * ``"sequential"`` — ``a0, ev(a0)..., a1, ev(a1)...``;
        * ``"interleave"`` — both aggressors first, then their set members
          interleaved round-robin (the double-sided variant).

        The loop is simulated exactly for its first two rounds.  A fixed
        cyclic reference string through a deterministic LRU cache is periodic
        with period one after the cold round, so rounds 3..N repeat round 2's
        hit/miss pattern bit for bit; the remaining rounds replay round 2's
        missing lines through the controller's bulk hammer path (refresh
        clipping, TRR and flip evaluation all apply) — aggressor lines first
        at the flush-path activation rate, then the eviction-set lines whose
        activations are accounted as ``wasted_activations`` and whose cost is
        the traversal's simulated-time tail.  An undersized or incongruent
        set never evicts the aggressor: every steady-round access hits the
        cache, no activations accumulate, and ``eviction_accuracy`` reads 0.
        """
        task = self.task(pid)
        self._require_running(task)
        task.syscall_count += 1
        self.stats.syscalls += 1
        self._m_sys_hammer_evict.inc()
        if rounds <= 0:
            raise ConfigError(f"rounds must be positive, got {rounds}")
        if not aggressor_vas:
            raise ConfigError("hammer needs at least one aggressor address")
        if len(eviction_vas) != len(aggressor_vas):
            raise ConfigError(
                f"need one eviction set per aggressor: "
                f"{len(aggressor_vas)} aggressors, {len(eviction_vas)} sets"
            )
        if pattern not in ("sequential", "interleave"):
            raise ConfigError(
                f"unknown access pattern {pattern!r}; "
                f"choose 'sequential' or 'interleave'"
            )
        self._pump_chaos("hammer", pid)
        aggressor_pas = [self._hammer_target_pa(task, va) for va in aggressor_vas]
        member_pas = [[self._hammer_target_pa(task, va) for va in vas] for vas in eviction_vas]

        # One round's access order, each entry tagged aggressor/traversal.
        sequence: list[tuple[int, bool]] = []
        if pattern == "sequential":
            for pa, members in zip(aggressor_pas, member_pas):
                sequence.append((pa, True))
                sequence.extend((m, False) for m in members)
        else:
            sequence.extend((pa, True) for pa in aggressor_pas)
            for group in zip_longest(*member_pas):
                sequence.extend((m, False) for m in group if m is not None)

        start_ns = self.clock.now_ns
        aggressor_misses = traversal_misses = 0
        live_activations = live_wasted = 0
        steady_agg_misses: list[int] = []
        steady_trav_misses: list[int] = []
        steady_hits = 0
        evictions_before_steady = self.cache.evictions
        live_rounds = min(rounds, 2)
        for round_index in range(live_rounds):
            steady = round_index == 1
            if steady:
                evictions_before_steady = self.cache.evictions
            for pa, is_aggressor in sequence:
                if self.cache.access(pa):
                    self.clock.advance(CACHE_HIT_NS)
                    if steady:
                        steady_hits += 1
                    continue
                if is_aggressor:
                    aggressor_misses += 1
                    if steady:
                        steady_agg_misses.append(pa)
                else:
                    traversal_misses += 1
                    if steady:
                        steady_trav_misses.append(pa)
                if self.controller.access(pa):
                    live_activations += 1
                    if not is_aggressor:
                        live_wasted += 1
        self._account_activations(pid, live_activations)

        total_activations = live_activations
        wasted_activations = live_wasted
        flips: list = []
        remaining = rounds - live_rounds
        if remaining > 0:
            steady_evictions = self.cache.evictions - evictions_before_steady
            aggressor_misses += len(steady_agg_misses) * remaining
            traversal_misses += len(steady_trav_misses) * remaining
            # The cache state after each steady round equals the state after
            # round 2, so only the counters need extrapolating.
            self.cache.hits += steady_hits * remaining
            self.cache.misses += (
                len(steady_agg_misses) + len(steady_trav_misses)
            ) * remaining
            self.cache.evictions += steady_evictions * remaining
            self.clock.advance(steady_hits * remaining * CACHE_HIT_NS)
            for batch, is_aggressor in (
                (steady_agg_misses, True),
                (steady_trav_misses, False),
            ):
                if not batch:
                    continue
                result = self._hammer_burst(pid, batch, remaining)
                total_activations += result.activations
                flips.extend(result.flips)
                if not is_aggressor:
                    wasted_activations += result.activations

        n_aggressors = len(aggressor_pas)
        n_traversal = len(sequence) - n_aggressors
        return EvictHammerResult(
            rounds=rounds,
            accesses=rounds * len(sequence),
            activations=total_activations,
            elapsed_ns=self.clock.now_ns - start_ns,
            flips=flips,
            aggressor_accesses=rounds * n_aggressors,
            aggressor_misses=aggressor_misses,
            traversal_accesses=rounds * n_traversal,
            traversal_misses=traversal_misses,
            wasted_activations=wasted_activations,
        )

    # -- file reads (page cache) ----------------------------------------------------

    def sys_file_read(self, pid: int, file_id: int, offset: int, length: int) -> bytes:
        """Read a simulated file through the page cache.

        First access to each file page allocates a reclaimable frame;
        kswapd evicts such frames under memory pressure, and a later read
        transparently refetches the content.
        """
        task = self.task(pid)
        self._require_running(task)
        task.syscall_count += 1
        self.stats.syscalls += 1
        self._m_sys_file_read.inc()
        self._maybe_run_kswapd()
        misses_before = self.page_cache.misses
        data = self.page_cache.read(file_id, offset, length, cpu=task.cpu)
        # Each page fill reached DRAM once; attribute it to the reader.
        self._account_activations(pid, self.page_cache.misses - misses_before)
        return data

    # -- pagemap ----------------------------------------------------------------

    def pagemap(self, reader_pid: int, target_pid: int | None = None) -> Pagemap:
        """Open ``/proc/<target>/pagemap`` with the *reader's* capabilities."""
        reader = self.task(reader_pid)
        target = self.task(target_pid if target_pid is not None else reader_pid)
        return Pagemap(target.mm, reader.caps)

    # -- helpers used by experiments ---------------------------------------------

    def churn(self, pid: int, pages: int) -> None:
        """Background memory activity: map, touch and release ``pages`` pages.

        Models the unrelated processes whose allocations compete for the
        page frame cache in the noise experiments.  Placement walks the
        default zonelist.
        """
        if pages <= 0:
            return
        va = self.sys_mmap(pid, pages * PAGE_SIZE, name="churn")
        for index in range(pages):
            self.mem_write(pid, va + index * PAGE_SIZE, b"\xaa")
        self.sys_munmap(pid, va, pages * PAGE_SIZE)

    def pfn_of(self, pid: int, va: int) -> int:
        """Ground-truth PFN for a resident page (experiment instrumentation).

        Unlike :meth:`pagemap`, this bypasses the capability gate — it
        exists so experiments can *score* attacks, never as part of one.
        """
        return self.resolve_pa(pid, va) >> PAGE_SHIFT
