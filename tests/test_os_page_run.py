"""Page runs and streams: the closed-form load/store paths against the per-line loop.

``Kernel._touch_lines`` serves a range of lines inside one DRAM row as one
page run when no refresh can fire inside it, and ``Kernel._stream`` serves
a range of whole resident pages as one multi-page stream;
``_touch_lines_each`` is the per-line loop both replace and the oracle
here.  Twin machines run the same random loads, stores, clflushes and
hammers, one of them forced onto the per-line loop, and must end in
identical simulated state: clock, cache counters and per-set LRU order,
bank row buffers and activation counters, refreshes, flips, ECC state,
the activation ledger, page-table accessed and dirty bits and every byte
of memory.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Machine, MachineConfig
from repro.dram.cache import CpuCacheConfig
from repro.dram.controller import MemoryController
from repro.dram.ecc import EccConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import make_mapping
from repro.dram.timing import DRAMTiming
from repro.dram.trr import TrrConfig
from repro.sim.clock import SimClock
from repro.sim.errors import SegmentationFault
from repro.sim.rng import RngStreams
from repro.sim.units import KIB, MS, PAGE_SIZE
from repro.vm.vma import Protection

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


def _config(mapping, trr, refw_ns, cache, geometry, ecc=False) -> MachineConfig:
    return replace(
        MachineConfig.small(seed=11),
        geometry=geometry,
        mapping=mapping,
        flip_model=FRAGILE,
        timing=replace(DRAMTiming.ddr3_1600(), t_refw_ns=refw_ns),
        trr=TrrConfig.ddr4_like(tracker_entries=2, threshold=120) if trr else TrrConfig.disabled(),
        ecc=EccConfig.secded64() if ecc else EccConfig.disabled(),
        cache=cache,
    )


shapes = st.builds(
    _config,
    mapping=st.sampled_from(["linear", "xor"]),
    trr=st.booleans(),
    ecc=st.booleans(),
    # 20 us puts a refresh tick inside roughly one page run in seven.
    refw_ns=st.sampled_from([20_000, 64 * MS]),
    cache=st.sampled_from([CpuCacheConfig(), CpuCacheConfig(sets=64, ways=2), FALLBACK_CACHE]),
    geometry=st.sampled_from([DRAMGeometry.small(), SHORT_ROWS]),
)

# Up to the whole buffer, so ranges hold streams as well as page runs.
_span = st.tuples(st.integers(0, BUFFER_BYTES - 1), st.integers(1, BUFFER_BYTES))
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


def _boot(config: MachineConfig, per_line: bool, hole: int | None = None):
    """A machine whose attacker has the buffer mapped and stored (but page ``hole``)."""
    machine = Machine(config)
    kernel = machine.kernel
    if per_line:
        kernel._touch_lines = kernel._touch_lines_each
        kernel._stream = lambda *args, **kwargs: 0
    pid = kernel.spawn("attacker", cpu=0).pid
    va = kernel.sys_mmap(pid, BUFFER_BYTES)
    if hole is None:
        kernel.mem_write(pid, va, bytes([0x55]) * BUFFER_BYTES)
    else:
        kernel.mem_write(pid, va, bytes([0x55]) * (hole * PAGE_SIZE))
        tail = va + (hole + 1) * PAGE_SIZE
        kernel.mem_write(pid, tail, bytes([0x55]) * (BUFFER_BYTES - (hole + 1) * PAGE_SIZE))
    return machine, pid, va


def _flush_buffer(machine, pid, va) -> None:
    """clflush every resident buffer line (one call per page: frames are scattered)."""
    table = machine.kernel.task(pid).mm.page_table
    for page_va in range(va, va + BUFFER_BYTES, PAGE_SIZE):
        if table.is_mapped(page_va):
            machine.kernel.sys_clflush(pid, page_va, PAGE_SIZE)


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
        "ecc": controller.ecc_stats(),
        "events": machine.events.stats(),
        "ptes": {
            pid: [(va, pte.pfn, pte.accessed, pte.dirty) for va, pte in task.mm.page_table.walk()]
            for pid, task in machine.kernel.tasks.items()
        },
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
        assert slow.kernel.stats.page_runs == slow.kernel.stats.streams == 0
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
        # The whole buffer is still cached, so every page hits and no
        # stream engages: the store is one page run per page.
        assert fast.kernel.stats.page_runs > 0 and fast.kernel.stats.streams == 0
        assert _state(fast) == _state(slow)


def _twins(config: MachineConfig, script, hole: int | None = None):
    """Run ``script(machine, pid, va)`` on a fast machine and on the per-line
    oracle; results and final state must agree.  Returns the fast machine,
    its result and its stream counters moved by the script."""
    results, machines = [], []
    for per_line in (False, True):
        machine, pid, va = _boot(config, per_line, hole)
        if not per_line:
            before = (machine.kernel.stats.streams, machine.kernel.stats.stream_lines)
        results.append(script(machine, pid, va))
        machines.append(machine)
    fast, slow = machines
    assert results[0] == results[1]
    assert _state(fast) == _state(slow)
    stats = fast.kernel.stats
    return fast, results[0], (stats.streams - before[0], stats.stream_lines - before[1])


def _read_all(machine, pid, va) -> bytes:
    return machine.kernel.mem_read(pid, va, BUFFER_BYTES)


# Dense weak cells: flips that cross their threshold by one activation are
# common enough to place them around a stream's activating pages.
DENSE = replace(FRAGILE, weak_cells_per_row_mean=64.0)
# Linear mapping, no TRR or ECC, a 64 ms window and the default 512-set cache.
PLAIN = _config("linear", False, 64 * MS, CpuCacheConfig(), DRAMGeometry.small())
LINES = PAGE_SIZE // 64


class TestStreamsMatchPerLineLoop:
    """Whole-page ranges of resident pages are streams; each shape below
    must move the stream counters and leave the per-line oracle's state."""

    def test_line_still_cached_splits_the_stream(self):
        """Flushed pages stream until the first page whose lines are still
        cached: that page hits, so it takes a page run, and no stream covers
        the cached pages after it."""

        def script(machine, pid, va):
            for index in range(BUFFER_PAGES // 2):
                machine.kernel.sys_clflush(pid, va + index * PAGE_SIZE, PAGE_SIZE)
            hits = machine.cache.hits
            return _read_all(machine, pid, va), machine.cache.hits - hits

        _, (_, hits), moved = _twins(PLAIN, script)
        assert moved == (1, BUFFER_PAGES // 2 * LINES)
        assert hits == BUFFER_PAGES // 2 * LINES

    def test_line_pushed_out_first_does_not_split(self):
        """A 2-way, 64-set cache holds the last two pages stored; the stream
        from page 0 evicts them before it reaches them, so they miss too."""
        config = replace(PLAIN, cache=CpuCacheConfig(sets=64, ways=2))

        def script(machine, pid, va):
            last = machine.kernel.resolve_pa(pid, va + BUFFER_BYTES - PAGE_SIZE)
            assert machine.cache.contains(last)
            return _read_all(machine, pid, va), machine.cache.hits

        fast, (_, hits), moved = _twins(config, script)
        assert moved == (1, BUFFER_PAGES * LINES)
        assert fast.cache.hits == hits

    def test_non_resident_page_ends_the_stream(self):
        """A page never stored reads as zeros and splits the read in two
        streams; a store faults it in between two streams."""
        hole = 20

        def script(machine, pid, va):
            _flush_buffer(machine, pid, va)
            data = _read_all(machine, pid, va)
            _flush_buffer(machine, pid, va)
            machine.kernel.mem_write(pid, va, bytes([0xAA]) * BUFFER_BYTES)
            return data

        fast, data, moved = _twins(PLAIN, script, hole=hole)
        assert data[hole * PAGE_SIZE : (hole + 1) * PAGE_SIZE] == bytes(PAGE_SIZE)
        assert moved == (4, 2 * (BUFFER_PAGES - 1) * LINES)
        assert fast.kernel.stats.page_faults == BUFFER_PAGES

    @pytest.mark.parametrize("offset_ns", [-100, 100], ids=["due-inside", "overdue"])
    def test_refresh_due_mid_stream_falls_back(self, offset_ns):
        """With a refresh tick due inside the range, or already overdue, the
        leading pages take the page path (the tick fires between their
        lines), then the rest of the range is one stream."""

        def script(machine, pid, va):
            _flush_buffer(machine, pid, va)
            machine.clock.advance_to(machine.events.next_due_ns("dram") + offset_ns)
            refreshes = machine.controller.refresh_count
            return _read_all(machine, pid, va), machine.controller.refresh_count - refreshes

        _, (_, refreshes), (streams, lines) = _twins(PLAIN, script)
        assert refreshes == 1
        assert streams == 1 and 0 < lines < BUFFER_PAGES * LINES

    def test_stream_ending_on_a_window_boundary_falls_back(self):
        """With t_cas = t_rc every line costs the bound, so a stream timed to
        end exactly on the refresh boundary would record its last page's
        activation in the next window; it must not engage."""
        timing = DRAMTiming.ddr3_1600()
        config = replace(PLAIN, timing=replace(timing, t_cas_ns=timing.t_rc_ns))

        def script(machine, pid, va):
            _flush_buffer(machine, pid, va)
            span = BUFFER_PAGES * LINES * timing.t_rc_ns
            machine.clock.advance_to(machine.events.next_due_ns("dram") - span)
            return _read_all(machine, pid, va)

        _, _, (streams, _) = _twins(config, script)
        assert streams == 0

    def test_page_table_bits_and_write_protection(self):
        """A stream sets the accessed bit of each page it loads and the dirty
        bit of each page it stores, and never stores into a read-only page:
        that store faults as on the page path."""

        def script(machine, pid, va):
            kernel = machine.kernel
            half = BUFFER_BYTES // 2
            clean = kernel.sys_mmap(pid, BUFFER_BYTES, populate=True)
            data = kernel.mem_read(pid, clean, half)
            kernel.mem_write(pid, clean + half, bytes([0x11]) * half)
            frozen = kernel.sys_mmap(pid, BUFFER_BYTES, prot=Protection.READ, populate=True)
            with pytest.raises(SegmentationFault):
                kernel.mem_write(pid, frozen, bytes([0x22]) * BUFFER_BYTES)
            return data

        _, _, (streams, lines) = _twins(PLAIN, script)
        assert (streams, lines) == (2, BUFFER_PAGES * LINES)

    @pytest.mark.parametrize(
        "mapping, pages, rounds",
        [("linear", (2, 34), 120), ("xor", (2, 38), 120)],
    )
    def test_flips_in_a_read_stream_follow_page_order(self, mapping, pages, rounds):
        """Re-activating a hammered pair's rows from inside a read stream
        flips cells both in pages the stream already read (the read keeps
        the old bit) and in pages it reads later (the read shows it)."""
        config = replace(PLAIN, mapping=mapping, flip_model=DENSE)

        def script(machine, pid, va):
            assert pages in _hammer_pairs(machine, pid, va)
            kernel = machine.kernel
            kernel.sys_hammer(pid, [va + page * PAGE_SIZE for page in pages], rounds)
            _flush_buffer(machine, pid, va)
            before = len(machine.controller.flip_log)
            data = _read_all(machine, pid, va)
            pages_of = {kernel.pfn_of(pid, va + i * PAGE_SIZE): i for i in range(BUFFER_PAGES)}
            shown = set()
            for flip in machine.controller.flip_log[before:]:
                if flip.pfn in pages_of:
                    byte = data[pages_of[flip.pfn] * PAGE_SIZE + flip.page_offset]
                    shown.add((byte >> flip.bit_in_byte) & 1 != flip.direction_1_to_0)
            return data, shown

        _, (_, shown), (streams, _) = _twins(config, script)
        assert streams == 1
        assert shown == {True, False}

    @pytest.mark.parametrize(
        "mapping, pages, rounds", [("linear", (0, 32), 29), ("xor", (0, 36), 29)]
    )
    def test_flips_in_a_write_stream_follow_page_order(self, mapping, pages, rounds):
        """Inside a store stream, a flip landing in a page stored later is
        overwritten by that page's store (the cell then flips again from a
        later activation), and flips in pages stored earlier stay."""
        config = replace(PLAIN, mapping=mapping, flip_model=DENSE)

        def script(machine, pid, va):
            assert pages in _hammer_pairs(machine, pid, va)
            machine.kernel.sys_hammer(pid, [va + page * PAGE_SIZE for page in pages], rounds)
            _flush_buffer(machine, pid, va)
            before = len(machine.controller.flip_log)
            machine.kernel.mem_write(pid, va, bytes([0x55]) * BUFFER_BYTES)
            log = machine.controller.flip_log[before:]
            return [(flip.phys_addr, flip.bit_in_byte) for flip in log]

        fast, cells, (streams, _) = _twins(config, script)
        assert streams == 1
        assert len(set(cells)) < len(cells)  # one cell flipped, was overwritten, flipped again
        memory = fast.controller.memory
        assert any(memory.get_bit(addr, bit) != (0x55 >> bit) & 1 for addr, bit in cells)

    @pytest.mark.parametrize("mapping, pages", [("linear", (2, 34)), ("xor", (2, 38))])
    def test_primed_victims_flip_in_page_order(self, mapping, pages):
        """A hammer leaves victims one stream away from flipping: the read
        stream's own activations push them over.  The no-flip certificate
        must not skip those evaluations, so the flips follow page order as
        on the per-line loop; on the read of the untouched buffer before the
        hammer it skips every one."""
        config = replace(PLAIN, mapping=mapping, flip_model=DENSE)
        skipped = []  # (activations, evaluations skipped) of each read, per machine

        def read(machine, pid, va):
            controller = machine.controller
            activations = controller.total_activations()
            certified = controller.certified_evaluations
            data = _read_all(machine, pid, va)
            skipped.append((
                controller.total_activations() - activations,
                controller.certified_evaluations - certified,
            ))
            return data

        def script(machine, pid, va):
            _flush_buffer(machine, pid, va)
            quiet = read(machine, pid, va)
            # A fresh refresh window, so the hammer alone primes the victims.
            machine.clock.advance_to(machine.events.next_due_ns("dram"))
            machine.kernel.sys_hammer(pid, [va + page * PAGE_SIZE for page in pages], 80)
            _flush_buffer(machine, pid, va)
            before = len(machine.controller.flip_log)
            data = read(machine, pid, va)
            return quiet, data, machine.controller.flip_log[before:]

        _, (_, _, flips), (streams, _) = _twins(config, script)
        assert streams == 2 and flips
        for activations, certified in skipped[0::2]:  # the quiet reads
            assert activations > 0 and certified == activations
        for activations, certified in skipped[1::2]:  # the primed reads
            assert certified < activations

    @pytest.mark.parametrize("mapping", ["linear", "xor"])
    @pytest.mark.parametrize("trr", [False, True])
    @pytest.mark.parametrize("ecc", [False, True])
    def test_hammer_then_stream_under_each_module(self, mapping, trr, ecc):
        """Hammer, then a full read and a full re-arming store as streams,
        under both mappings with TRR and ECC on and off."""
        config = _config(mapping, trr, 64 * MS, CpuCacheConfig(), DRAMGeometry.small(), ecc)
        config = replace(config, flip_model=DENSE)

        def script(machine, pid, va):
            kernel = machine.kernel
            pairs = _hammer_pairs(machine, pid, va)
            for a, b in pairs[:4]:
                kernel.sys_hammer(pid, [va + a * PAGE_SIZE, va + b * PAGE_SIZE], 150)
            _flush_buffer(machine, pid, va)
            data = _read_all(machine, pid, va)
            _flush_buffer(machine, pid, va)
            kernel.mem_write(pid, va, bytes([0xFF]) * BUFFER_BYTES)
            return data, len(machine.controller.flip_log)

        _, (_, flips), (streams, lines) = _twins(config, script)
        assert streams == 2 and lines == 2 * BUFFER_PAGES * LINES
        assert flips


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
            st.tuples(st.integers(0, 2047), st.integers(1, 64), st.integers(0, 900)),
            min_size=1, max_size=40,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_access(self, refw_ns, runs):
        fast = self._controller(refw_ns)
        slow = self._controller(refw_ns)
        for row_block, count, idle in runs:
            base = row_block * 8 * KIB
            for controller in (fast, slow):
                controller.clock.advance(idle)
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
