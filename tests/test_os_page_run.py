"""Page runs: the closed-form load/store path against the per-line loop.

``Kernel._touch_lines`` serves a range of lines inside one DRAM row as one
page run when no refresh can fire inside it; ``_touch_lines_each`` is the
per-line loop it replaces and the oracle here.  Twin machines run the same
random loads, stores, clflushes and hammers, one of them forced onto the
per-line loop, and must end in identical simulated state: clock, cache
counters and per-set LRU order, bank row buffers and activation counters,
refreshes, flips, the activation ledger and every byte of memory.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Machine, MachineConfig
from repro.dram.cache import CpuCacheConfig
from repro.dram.controller import MemoryController
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import make_mapping
from repro.dram.timing import DRAMTiming
from repro.dram.trr import TrrConfig
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.sim.units import KIB, MS, PAGE_SIZE

BUFFER_PAGES = 40
BUFFER_BYTES = BUFFER_PAGES * PAGE_SIZE

# Dense weak cells with thresholds a short refresh window can still reach,
# so flips land inside page runs as well as inside hammer calls.
FRAGILE = FlipModelConfig(
    weak_cells_per_row_mean=4.0,
    threshold_mean=200.0,
    threshold_sd=80.0,
    threshold_min=20,
    threshold_max=600,
)

# Shapes the page run must refuse for a whole page: fewer cache sets than
# lines in a page, or DRAM rows shorter than a page.
FALLBACK_CACHE = CpuCacheConfig(sets=32, ways=4)
SHORT_ROWS = DRAMGeometry(rows_per_bank=4096, row_bytes=2 * KIB)


def _config(mapping, trr, refw_ns, cache, geometry) -> MachineConfig:
    return replace(
        MachineConfig.small(seed=11),
        geometry=geometry,
        mapping=mapping,
        flip_model=FRAGILE,
        timing=replace(DRAMTiming.ddr3_1600(), t_refw_ns=refw_ns),
        trr=TrrConfig.ddr4_like(tracker_entries=2, threshold=120) if trr else TrrConfig.disabled(),
        cache=cache,
    )


shapes = st.builds(
    _config,
    mapping=st.sampled_from(["linear", "xor"]),
    trr=st.booleans(),
    # 20 us puts a refresh tick inside roughly one page run in seven.
    refw_ns=st.sampled_from([20_000, 64 * MS]),
    cache=st.sampled_from([CpuCacheConfig(), CpuCacheConfig(sets=64, ways=2), FALLBACK_CACHE]),
    geometry=st.sampled_from([DRAMGeometry.small(), SHORT_ROWS]),
)

_span = st.tuples(
    st.integers(0, BUFFER_BYTES - 1), st.integers(1, 3 * PAGE_SIZE)
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _span, st.integers(0, 255)),
        st.tuples(st.just("read"), _span, st.just(0)),
        st.tuples(st.just("flush"), _span, st.just(0)),
        st.tuples(st.just("hammer"), st.tuples(st.integers(0, 1 << 16), st.integers(0, 3)),
                  st.integers(50, 3_000)),
    ),
    min_size=1,
    max_size=25,
)


def _boot(config: MachineConfig, per_line: bool):
    machine = Machine(config)
    kernel = machine.kernel
    if per_line:
        kernel._touch_lines = kernel._touch_lines_each
    pid = kernel.spawn("attacker", cpu=0).pid
    va = kernel.sys_mmap(pid, BUFFER_BYTES)
    kernel.mem_write(pid, va, bytes([0x55]) * BUFFER_BYTES)
    return machine, pid, va


def _hammer_pairs(machine, pid, va) -> list[tuple[int, int]]:
    """Buffer page pairs in one bank on different rows (they activate)."""
    kernel = machine.kernel
    coords = []
    for index in range(BUFFER_PAGES):
        addr = machine.controller.mapping.to_dram(kernel.resolve_pa(pid, va + index * PAGE_SIZE))
        coords.append((addr.bank_key(), addr.row))
    return [
        (a, b)
        for a in range(BUFFER_PAGES)
        for b in range(a + 1, BUFFER_PAGES)
        if coords[a][0] == coords[b][0] and coords[a][1] != coords[b][1]
    ]


def _apply(machine, pid, va, pairs, op) -> bytes | None:
    kernel = machine.kernel
    kind, arg, value = op
    if kind == "hammer":
        choice, line = arg
        if pairs:
            a, b = pairs[choice % len(pairs)]
        else:
            a, b = choice % BUFFER_PAGES, (choice + 1) % BUFFER_PAGES
        offset = line * 64
        kernel.sys_hammer(pid, [va + a * PAGE_SIZE + offset, va + b * PAGE_SIZE + offset], value)
        return None
    start, length = arg
    length = min(length, BUFFER_BYTES - start)
    if kind == "write":
        kernel.mem_write(pid, va + start, bytes([value]) * length)
        return None
    if kind == "read":
        return kernel.mem_read(pid, va + start, length)
    kernel.sys_clflush(pid, va + start, length)
    return None


def _state(machine) -> dict:
    controller = machine.controller
    cache = machine.cache
    return {
        "clock": machine.clock.now_ns,
        "cache": (cache.hits, cache.misses, cache.evictions, cache.flushes),
        "lru": cache.lru_order(),
        "banks": {
            key: (bank.open_row, dict(bank.activations), bank.total_activations,
                  bank.total_row_hits)
            for key, bank in controller._banks.items()
        },
        "trr": controller.trr_stats(),
        "refreshes": controller.refresh_count,
        "flips": list(controller.flip_log),
        "ledger": {epoch: dict(window) for epoch, window in machine.kernel.ledger._counts.items()},
        "memory": {pfn: bytes(frame.data) for pfn, frame in controller.memory._frames.items()},
        "events": machine.events.stats(),
    }


class TestPageRunMatchesPerLineLoop:
    @given(config=shapes, script=ops)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_twin_machines_agree(self, config, script):
        fast, fast_pid, fast_va = _boot(config, per_line=False)
        slow, slow_pid, slow_va = _boot(config, per_line=True)
        pairs = _hammer_pairs(fast, fast_pid, fast_va)
        assert pairs == _hammer_pairs(slow, slow_pid, slow_va)
        for op in script:
            assert _apply(fast, fast_pid, fast_va, pairs, op) == _apply(
                slow, slow_pid, slow_va, pairs, op
            )
        assert _state(fast) == _state(slow)
        assert slow.kernel.stats.page_runs == 0
        if config.cache.sets >= 64 and config.geometry.row_bytes >= PAGE_SIZE:
            assert fast.kernel.stats.page_runs > 0

    def test_flips_land_inside_page_runs(self):
        """Re-arming a hammered buffer re-activates the aggressor rows from
        inside page runs; their flips carry the per-line loop's timestamps."""
        config = _config("linear", False, 64 * MS, CpuCacheConfig(), DRAMGeometry.small())
        fast, pid, va = _boot(config, per_line=False)
        slow, _, _ = _boot(config, per_line=True)
        a, b = _hammer_pairs(fast, pid, va)[0]
        # Aggressor lines at offset 5 * 64: the re-arming store then meets
        # five cache hits before the miss that activates the row.
        aggressors = [va + a * PAGE_SIZE + 5 * 64, va + b * PAGE_SIZE + 5 * 64]
        during = []
        for machine in (fast, slow):
            machine.kernel.sys_hammer(pid, aggressors, 2_000)
            before = len(machine.controller.flip_log)
            machine.kernel.mem_write(pid, va, bytes([0x55]) * BUFFER_BYTES)
            during.append(machine.controller.flip_log[before:])
        assert during[0] and during[0] == during[1]
        assert fast.kernel.stats.page_runs > 0
        assert _state(fast) == _state(slow)


class TestPageRunConditions:
    """Which ranges take the page run, read off the shortcut counters."""

    @staticmethod
    def _reader(config: MachineConfig):
        machine, pid, va = _boot(config, per_line=False)
        stats = machine.kernel.stats
        stats.page_runs = stats.page_run_lines = 0

        def read(offset: int, length: int) -> tuple[int, int]:
            machine.kernel.mem_read(pid, va + offset, length)
            return stats.page_runs, stats.page_run_lines

        return machine, read

    def test_page_is_one_run_of_64_lines(self):
        _, read = self._reader(MachineConfig.small())
        assert read(0, PAGE_SIZE) == (1, 64)

    def test_single_line_takes_the_loop(self):
        _, read = self._reader(MachineConfig.small())
        assert read(70, 50) == (0, 0)
        assert read(100, 50) == (1, 2)  # straddles a line boundary

    def test_page_crossing_range_is_one_run_per_page(self):
        _, read = self._reader(MachineConfig.small())
        assert read(PAGE_SIZE - 128, 256) == (2, 4)

    def test_fewer_sets_than_lines_falls_back(self):
        _, read = self._reader(replace(MachineConfig.small(), cache=FALLBACK_CACHE))
        assert read(0, PAGE_SIZE) == (0, 0)
        assert read(0, 32 * 64) == (1, 32)

    def test_rows_shorter_than_a_page_fall_back(self):
        _, read = self._reader(replace(MachineConfig.small(), geometry=SHORT_ROWS))
        assert read(0, PAGE_SIZE) == (0, 0)
        assert read(0, 2 * KIB) == (1, 32)

    def test_refresh_due_inside_the_range_falls_back(self):
        machine, read = self._reader(MachineConfig.small())
        due = machine.events.next_due_ns("dram")
        machine.clock.advance_to(due - 100)
        machine.cache.flush_all()  # every line misses, so the loop pumps
        assert read(0, PAGE_SIZE) == (0, 0)
        assert machine.controller.refresh_count == 1  # the tick fired mid-page


class TestBareControllerRowRun:
    """A controller built outside a Machine refreshes through its private
    scheduler; a row run guarded by ``is_quiet_until`` must match
    per-access calls."""

    @staticmethod
    def _controller(refw_ns: int) -> MemoryController:
        geometry = DRAMGeometry.small()
        return MemoryController(
            geometry,
            make_mapping("xor", geometry),
            replace(DRAMTiming.ddr3_1600(), t_refw_ns=refw_ns),
            FRAGILE,
            RngStreams(3),
            SimClock(),
        )

    @given(
        refw_ns=st.sampled_from([1_000, 5_000]),
        runs=st.lists(
            st.tuples(
                st.integers(0, 2047), st.integers(1, 64), st.integers(0, 900),
                # Chaos refresh jitter: a longer window can put the clock
                # back inside an earlier epoch index.
                st.sampled_from([1.0, 1.0, 0.5, 3.0]),
            ),
            min_size=1, max_size=40,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_access(self, refw_ns, runs):
        fast = self._controller(refw_ns)
        slow = self._controller(refw_ns)
        for row_block, count, idle, scale in runs:
            base = row_block * 8 * KIB
            for controller in (fast, slow):
                controller.clock.advance(idle)
                controller.refresh_scale = scale
            if fast.is_quiet_until(fast.clock.now_ns + count * fast.timing.t_rc_ns):
                fast.access_row_run(base, count)
            else:
                for i in range(count):
                    fast.access(base + 64 * i)
            for i in range(count):
                slow.access(base + 64 * i)
            assert fast.clock.now_ns == slow.clock.now_ns
        assert fast.refresh_count == slow.refresh_count
        assert fast.flip_log == slow.flip_log
        assert fast.stats() == slow.stats()
        assert {k: (b.open_row, b.activations) for k, b in fast._banks.items()} == {
            k: (b.open_row, b.activations) for k, b in slow._banks.items()
        }
