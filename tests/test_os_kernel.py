"""Kernel facade: syscalls, demand paging, cache interplay, hammering."""

import pytest

from repro.os.task import TaskState
from repro.sim.errors import ConfigError, FaultError, SegmentationFault
from repro.sim.units import PAGE_SIZE


@pytest.fixture
def kernel(small_machine):
    return small_machine.kernel


@pytest.fixture
def task(kernel):
    return kernel.spawn("proc", cpu=0)


class TestProcessLifecycle:
    def test_spawn_assigns_unique_pids(self, kernel):
        a = kernel.spawn("a")
        b = kernel.spawn("b")
        assert a.pid != b.pid

    def test_spawn_balances_cpus(self, kernel):
        a = kernel.spawn("a")
        b = kernel.spawn("b")
        assert {a.cpu, b.cpu} == {0, 1}

    def test_spawn_pinned(self, kernel):
        task = kernel.spawn("pinned", cpu=1)
        assert task.cpu == 1
        assert task.allowed_cpus == frozenset({1})

    def test_lookup_unknown_pid(self, kernel):
        with pytest.raises(ConfigError):
            kernel.task(9999)

    def test_exit_releases_frames(self, kernel, task):
        va = kernel.sys_mmap(task.pid, 4 * PAGE_SIZE)
        for index in range(4):
            kernel.mem_write(task.pid, va + index * PAGE_SIZE, b"x")
        free_before = kernel.allocator.node.free_pages
        freed = kernel.sys_exit(task.pid)
        assert freed == 4
        assert kernel.allocator.node.free_pages == free_before + 4
        with pytest.raises(ConfigError):
            kernel.task(task.pid)


class TestDemandPaging:
    def test_mmap_allocates_nothing(self, kernel, task):
        faulted_before = kernel.stats.frames_faulted_in
        kernel.sys_mmap(task.pid, 64 * PAGE_SIZE)
        assert kernel.stats.frames_faulted_in == faulted_before

    def test_write_faults_one_page(self, kernel, task):
        va = kernel.sys_mmap(task.pid, 4 * PAGE_SIZE)
        kernel.mem_write(task.pid, va, b"hello")
        assert task.mm.rss_pages == 1
        assert task.minor_faults == 1

    def test_faulted_page_is_zeroed(self, kernel, task):
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        kernel.mem_write(task.pid, va + 10, b"z")
        data = kernel.mem_read(task.pid, va, 16)
        assert data == bytes(10) + b"z" + bytes(5)

    def test_read_of_unpopulated_page_returns_zero_without_alloc(self, kernel, task):
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        assert kernel.mem_read(task.pid, va, 32) == bytes(32)
        assert task.mm.rss_pages == 0  # shared zero page, no frame

    def test_read_outside_vma_segfaults(self, kernel, task):
        with pytest.raises(SegmentationFault):
            kernel.mem_read(task.pid, 0x1234_0000, 1)

    def test_write_outside_vma_segfaults(self, kernel, task):
        with pytest.raises(SegmentationFault):
            kernel.mem_write(task.pid, 0x1234_0000, b"x")

    def test_populate_faults_eagerly(self, kernel, task):
        kernel.sys_mmap(task.pid, 4 * PAGE_SIZE, populate=True)
        assert task.mm.rss_pages == 4

    def test_write_read_round_trip(self, kernel, task):
        va = kernel.sys_mmap(task.pid, 2 * PAGE_SIZE)
        payload = bytes(range(256)) * 20
        kernel.mem_write(task.pid, va + 100, payload)
        assert kernel.mem_read(task.pid, va + 100, len(payload)) == payload


class TestMunmapToPcp:
    def test_freed_frame_lands_on_pcp_hot_end(self, kernel, task):
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        kernel.mem_write(task.pid, va, b"x")
        pfn = kernel.pfn_of(task.pid, va)
        kernel.sys_munmap(task.pid, va, PAGE_SIZE)
        zone = kernel.allocator.node.zone_of_pfn(pfn)
        assert zone.pcp(task.cpu).peek_hot() == pfn

    def test_reuse_by_next_small_alloc(self, kernel):
        attacker = kernel.spawn("att", cpu=0)
        victim = kernel.spawn("vic", cpu=0)
        va = kernel.sys_mmap(attacker.pid, PAGE_SIZE)
        kernel.mem_write(attacker.pid, va, b"x")
        pfn = kernel.pfn_of(attacker.pid, va)
        kernel.sys_munmap(attacker.pid, va, PAGE_SIZE)
        victim_va = kernel.sys_mmap(victim.pid, PAGE_SIZE)
        kernel.mem_write(victim.pid, victim_va, b"y")
        assert kernel.pfn_of(victim.pid, victim_va) == pfn

    def test_frame_owner_tracking(self, kernel, task):
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        kernel.mem_write(task.pid, va, b"x")
        pfn = kernel.pfn_of(task.pid, va)
        assert kernel.allocator.zone_of_pfn(pfn).buddy.frames[pfn].owner_pid == task.pid


class TestSleepDrain:
    def test_sleep_drains_cpu_caches(self, kernel, task):
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        kernel.mem_write(task.pid, va, b"x")
        kernel.sys_munmap(task.pid, va, PAGE_SIZE)
        lost = kernel.sys_sleep(task.pid)
        assert lost > 0
        assert task.state is TaskState.SLEEPING

    def test_sleeping_task_cannot_touch_memory(self, kernel, task):
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        kernel.sys_sleep(task.pid)
        with pytest.raises(ConfigError):
            kernel.mem_write(task.pid, va, b"x")

    def test_wake_restores(self, kernel, task):
        kernel.sys_sleep(task.pid)
        kernel.sys_wake(task.pid)
        assert task.state is TaskState.RUNNING
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        kernel.mem_write(task.pid, va, b"x")

    def test_double_sleep_is_noop(self, kernel, task):
        kernel.sys_sleep(task.pid)
        assert kernel.sys_sleep(task.pid) == 0


class TestAffinity:
    def test_setaffinity_migrates(self, kernel):
        task = kernel.spawn("t", cpu=0, affinity=frozenset({0, 1}))
        kernel.sys_sched_setaffinity(task.pid, frozenset({1}))
        assert task.cpu == 1

    def test_empty_mask_rejected(self, kernel, task):
        with pytest.raises(ConfigError):
            kernel.sys_sched_setaffinity(task.pid, frozenset())


class TestCacheAndFlush:
    def test_repeated_reads_hit_cache(self, kernel, task):
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        kernel.mem_write(task.pid, va, b"x" * 64)
        misses_before = kernel.cache.misses
        kernel.mem_read(task.pid, va, 64)
        kernel.mem_read(task.pid, va, 64)
        assert kernel.cache.misses == misses_before
        assert kernel.cache.hits >= 2

    def test_clflush_forces_next_miss(self, kernel, task):
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        kernel.mem_write(task.pid, va, b"x" * 64)
        kernel.sys_clflush(task.pid, va, 64)
        misses_before = kernel.cache.misses
        kernel.mem_read(task.pid, va, 1)
        assert kernel.cache.misses == misses_before + 1

    def test_clflush_returns_eviction_count(self, kernel, task):
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        kernel.mem_write(task.pid, va, b"x" * 128)
        assert kernel.sys_clflush(task.pid, va, 128) == 2


class TestHammerSyscall:
    def test_requires_resident_target(self, kernel, task):
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        with pytest.raises(FaultError):
            kernel.sys_hammer(task.pid, [va], 100)

    def test_hammer_counts_activations(self, kernel, task):
        va = kernel.sys_mmap(task.pid, 256 * PAGE_SIZE)
        stride = kernel.controller.mapping.row_stride()
        kernel.mem_write(task.pid, va, b"a")
        kernel.mem_write(task.pid, va + stride, b"b")
        result = kernel.sys_hammer(task.pid, [va, va + stride], 1000)
        assert result.rounds == 1000

    def test_no_flush_means_no_hammering(self, kernel, task):
        va = kernel.sys_mmap(task.pid, 256 * PAGE_SIZE)
        stride = kernel.controller.mapping.row_stride()
        kernel.mem_write(task.pid, va, b"a")
        kernel.mem_write(task.pid, va + stride, b"b")
        result = kernel.sys_hammer(task.pid, [va, va + stride], 10_000, flush=False)
        assert result.activations <= 2
        assert result.flips == []

    @staticmethod
    def _observable(kernel):
        cache = kernel.cache
        return cache.hits, cache.misses, cache.evictions, kernel.clock.now_ns

    @pytest.mark.parametrize("flush", [True, False])
    @pytest.mark.parametrize("rounds", [0, -3])
    def test_non_positive_rounds_rejected(self, kernel, task, rounds, flush):
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        kernel.mem_write(task.pid, va, b"a")
        before = self._observable(kernel)
        with pytest.raises(ConfigError):
            kernel.sys_hammer(task.pid, [va], rounds, flush=flush)
        assert self._observable(kernel) == before

    @pytest.mark.parametrize("flush", [True, False])
    def test_empty_address_list_rejected(self, kernel, task, flush):
        before = self._observable(kernel)
        with pytest.raises(ConfigError):
            kernel.sys_hammer(task.pid, [], 100, flush=flush)
        assert self._observable(kernel) == before


class TestChurnAndPagemap:
    def test_churn_conserves_frames(self, kernel, task):
        free_before = kernel.allocator.node.free_pages
        kernel.churn(task.pid, 16)
        assert kernel.allocator.node.free_pages == free_before

    def test_churn_zero_pages(self, kernel, task):
        kernel.churn(task.pid, 0)

    def test_pagemap_uses_reader_caps(self, kernel):
        from repro.os.capabilities import CapabilitySet

        worker = kernel.spawn("worker", cpu=0)
        admin = kernel.spawn("admin", cpu=0, caps=CapabilitySet.root())
        va = kernel.sys_mmap(worker.pid, PAGE_SIZE)
        kernel.mem_write(worker.pid, va, b"x")
        own_view = kernel.pagemap(worker.pid).read(va)
        admin_view = kernel.pagemap(admin.pid, worker.pid).read(va)
        assert not own_view.pfn_visible
        assert admin_view.pfn_visible
        assert admin_view.pfn == kernel.pfn_of(worker.pid, va)

    def test_syscall_counters(self, kernel, task):
        before = kernel.stats.syscalls
        kernel.sys_mmap(task.pid, PAGE_SIZE)
        assert kernel.stats.syscalls == before + 1
        assert kernel.stats.mmap_calls >= 1
