"""Memory controller: hammering, refresh windows, flip semantics."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dram.controller import FlipEvent, HammerResult, MemoryController
from repro.dram.ecc import EccConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMAddress, DRAMGeometry
from repro.dram.mapping import LinearMapping, XorBankMapping
from repro.dram.timing import DRAMTiming
from repro.dram.trr import TrrConfig
from repro.sim.clock import SimClock
from repro.sim.errors import ConfigError
from repro.sim.rng import RngStreams
from repro.sim.units import PAGE_SIZE

GEO = DRAMGeometry.small()


def make_controller(flip_config=None, seed=0, timing=None):
    return MemoryController(
        geometry=GEO,
        mapping=LinearMapping(GEO),
        timing=timing or DRAMTiming(),
        flip_config=flip_config
        or FlipModelConfig(
            weak_cells_per_row_mean=2.0,
            threshold_mean=150_000,
            threshold_sd=30_000,
            threshold_min=50_000,
        ),
        rng=RngStreams(seed),
        clock=SimClock(),
    )


def same_bank_pair(controller, bank=0, rows=(99, 101)):
    m = controller.mapping
    return [
        m.to_phys(DRAMAddress(0, 0, bank, row, 0)) for row in rows
    ]


def arm_row(controller, bank, row, pattern=0xFF):
    """Fill every frame of a row so its true cells are armed."""
    base = controller.mapping.row_base_phys(0, 0, bank, row)
    for offset in range(0, GEO.row_bytes, PAGE_SIZE):
        controller.memory.write(base + offset, bytes([pattern]) * PAGE_SIZE)


class TestAccessPath:
    def test_access_advances_clock(self):
        controller = make_controller()
        controller.access(0)
        assert controller.clock.now_ns == controller.timing.t_rc_ns

    def test_row_hit_is_cheaper(self):
        controller = make_controller()
        controller.access(0)
        t0 = controller.clock.now_ns
        controller.access(1)  # same row
        assert controller.clock.now_ns - t0 == controller.timing.t_cas_ns

    def test_activation_reported(self):
        controller = make_controller()
        assert controller.access(0) is True
        assert controller.access(1) is False


class TestHammer:
    def test_same_bank_pair_accumulates(self):
        controller = make_controller()
        result = controller.hammer(same_bank_pair(controller), 1000)
        assert result.activations == 2000
        assert result.accesses == 2000

    def test_different_bank_pair_does_not(self):
        controller = make_controller()
        m = controller.mapping
        pa = [
            m.to_phys(DRAMAddress(0, 0, 0, 50, 0)),
            m.to_phys(DRAMAddress(0, 0, 1, 50, 0)),
        ]
        result = controller.hammer(pa, 1000)
        # Each row opens once and stays open: only the static activations.
        assert result.activations <= 2

    def test_same_row_pair_does_not(self):
        controller = make_controller()
        m = controller.mapping
        pa = [
            m.to_phys(DRAMAddress(0, 0, 0, 50, 0)),
            m.to_phys(DRAMAddress(0, 0, 0, 50, 64)),
        ]
        result = controller.hammer(pa, 1000)
        assert result.activations <= 1

    def test_validation(self):
        controller = make_controller()
        with pytest.raises(ConfigError):
            controller.hammer([], 10)
        with pytest.raises(ConfigError):
            controller.hammer([0], 0)

    def test_elapsed_time_scales_with_rounds(self):
        controller = make_controller()
        r1 = controller.hammer(same_bank_pair(controller), 1000)
        assert r1.elapsed_ns == 1000 * 2 * controller.timing.t_rc_ns


class TestRefreshWindows:
    def test_counters_reset_between_windows(self):
        controller = make_controller(FlipModelConfig.invulnerable())
        pair = same_bank_pair(controller)
        # A hammer run long enough to span several refresh windows.
        max_per_window = controller.timing.max_activations_per_window()
        rounds = max_per_window  # 2 activations per round -> ~2 windows
        controller.hammer(pair, rounds)
        assert controller.refresh_count >= 1
        # Window counters hold only the current window's share.
        bank = controller.bank((0, 0, 0))
        assert bank.activations_in_window(99) < rounds

    def test_refresh_epoch_tracks_clock(self):
        controller = make_controller()
        assert controller.current_refresh_epoch() == 0
        controller.clock.advance(controller.timing.t_refw_ns + 1)
        assert controller.current_refresh_epoch() == 1


class TestFlips:
    def test_hammering_produces_flips(self):
        controller = make_controller()
        arm_row(controller, 0, 100)
        arm_row(controller, 0, 98)
        arm_row(controller, 0, 102)
        result = controller.hammer(same_bank_pair(controller), 600_000)
        assert result.flips
        assert controller.flip_log == result.flips

    def test_no_weak_cells_no_flips(self):
        controller = make_controller(FlipModelConfig.invulnerable())
        arm_row(controller, 0, 100)
        result = controller.hammer(same_bank_pair(controller), 600_000)
        assert result.flips == []

    def test_insufficient_rounds_no_flips(self):
        controller = make_controller()
        arm_row(controller, 0, 100)
        result = controller.hammer(same_bank_pair(controller), 1_000)
        assert result.flips == []

    def test_flips_are_repeatable(self):
        controller = make_controller()
        for row in (98, 100, 102):
            arm_row(controller, 0, row)
        first = controller.hammer(same_bank_pair(controller), 600_000)
        assert first.flips
        # Repair the flipped bits, then hammer again: same cells flip.
        for event in first.flips:
            byte = controller.memory.read_byte(event.phys_addr)
            mask = 1 << event.bit_in_byte
            repaired = byte | mask if event.direction_1_to_0 else byte & ~mask
            controller.memory.write_byte(event.phys_addr, repaired)
        second = controller.hammer(same_bank_pair(controller), 600_000)
        key = lambda e: (e.phys_addr, e.bit_in_byte)
        assert {key(e) for e in first.flips} == {key(e) for e in second.flips}

    def test_data_pattern_dependence(self):
        """A true cell (1->0) in a zeroed page cannot flip."""
        controller = make_controller()
        for row in (98, 100, 102):
            arm_row(controller, 0, row, pattern=0xFF)
        with_ones = controller.hammer(same_bank_pair(controller), 600_000)
        one_to_zero = [e for e in with_ones.flips if e.direction_1_to_0]
        # Fresh controller, same seed: zero-filled rows instead.
        controller2 = make_controller()
        for row in (98, 100, 102):
            arm_row(controller2, 0, row, pattern=0x00)
        with_zeros = controller2.hammer(same_bank_pair(controller2), 600_000)
        assert all(not e.direction_1_to_0 for e in with_zeros.flips)
        if one_to_zero:
            flipped_addrs = {e.phys_addr for e in with_zeros.flips}
            assert all(e.phys_addr not in flipped_addrs or True for e in one_to_zero)

    def test_flip_changes_memory_contents(self):
        controller = make_controller()
        for row in (98, 100, 102):
            arm_row(controller, 0, row, pattern=0xFF)
        result = controller.hammer(same_bank_pair(controller), 600_000)
        for event in result.flips:
            bit = controller.memory.get_bit(event.phys_addr, event.bit_in_byte)
            assert bit == (0 if event.direction_1_to_0 else 1)

    def test_flip_event_coordinates(self):
        controller = make_controller()
        for row in (98, 100, 102):
            arm_row(controller, 0, row, pattern=0xFF)
        result = controller.hammer(same_bank_pair(controller), 600_000)
        for event in result.flips:
            assert event.bank_key == (0, 0, 0)
            assert event.row in (97, 98, 100, 102, 103)
            assert event.pfn == event.phys_addr >> 12
            assert 0 <= event.page_offset < PAGE_SIZE

    def test_flips_in_pfn_filter(self):
        controller = make_controller()
        for row in (98, 100, 102):
            arm_row(controller, 0, row, pattern=0xFF)
        result = controller.hammer(same_bank_pair(controller), 600_000)
        assert result.flips
        pfn = result.flips[0].pfn
        assert result.flips[0] in controller.flips_in_pfn(pfn)

    def test_double_refresh_rate_suppresses_flips(self):
        """The 2x-refresh mitigation halves the per-window budget."""
        slow = make_controller()
        fast = make_controller(timing=DRAMTiming.fast_refresh(2))
        for c in (slow, fast):
            for row in (98, 100, 102):
                arm_row(c, 0, row, pattern=0xFF)
        rounds = 400_000
        slow_flips = len(slow.hammer(same_bank_pair(slow), rounds).flips)
        fast_flips = len(fast.hammer(same_bank_pair(fast), rounds).flips)
        assert fast_flips <= slow_flips


class TestStats:
    def test_stats_keys(self):
        controller = make_controller()
        controller.access(0)
        stats = controller.stats()
        for key in ("activations", "row_hits", "flips", "refreshes", "banks_touched"):
            assert key in stats

    def test_mismatched_mapping_rejected(self):
        other_geo = DRAMGeometry.default()
        with pytest.raises(ConfigError):
            MemoryController(
                geometry=GEO,
                mapping=LinearMapping(other_geo),
                timing=DRAMTiming(),
                flip_config=FlipModelConfig(),
                rng=RngStreams(0),
                clock=SimClock(),
            )


class TestVectorScalarEquivalence:
    """The vectorised dense-row evaluation path must flip exactly the
    cells, in exactly the order, that the scalar per-cell loop does."""

    def _flip_trace(self, vector_min_cells):
        dense = FlipModelConfig(
            weak_cells_per_row_mean=24.0,
            threshold_mean=160_000,
            threshold_sd=40_000,
            threshold_min=50_000,
        )
        controller = make_controller(flip_config=dense, seed=7)
        pairs = [
            same_bank_pair(controller, rows=(99, 101)),
            same_bank_pair(controller, rows=(300, 302)),
        ]
        saved = MemoryController._VECTOR_MIN_CELLS
        MemoryController._VECTOR_MIN_CELLS = vector_min_cells
        try:
            for pair in pairs:
                controller.hammer(pair, 600_000)
                controller.hammer(pair, 400_000)
        finally:
            MemoryController._VECTOR_MIN_CELLS = saved
        return [
            (e.time_ns, e.phys_addr, e.bit_in_byte, e.direction_1_to_0, e.bank_key, e.row)
            for e in controller.flip_log
        ]

    def test_dense_rows_flip_identically_on_both_paths(self):
        scalar = self._flip_trace(10**9)  # every row takes the scalar loop
        vector = self._flip_trace(0)      # every row takes the vector path
        assert scalar == vector
        assert scalar  # non-vacuous: the seeded rows really flipped


class ReferenceController(MemoryController):
    """Per-victim flip evaluation, as it stood before victim plans: the oracle.

    Every call rebuilds the victim set of the aggressors and, per victim,
    looks up its population, sums its neighbours' activations and applies
    the flips, sparse rows through the per-cell ``WeakCell`` loop.  It
    shares no fast path: it runs no no-flip certificate, builds no victim
    plan and maps every hammer's addresses afresh.  The plan-based
    controller must produce the same flip log and DRAM state.
    """

    def _hammer(self, phys_addrs, rounds):
        self._pump_timed()
        by_bank: dict = {}
        for phys in phys_addrs:
            addr = self.mapping.to_dram(phys)
            by_bank.setdefault(addr.bank_key(), []).append(addr.row)
        activations_per_round: dict = {}
        ns_per_round = 0
        static_activations = 0
        for key, rows in by_bank.items():
            if len(set(rows)) >= 2:
                per_row: dict = {}
                for row in rows:
                    per_row[row] = per_row.get(row, 0) + 1
                activations_per_round[key] = per_row
                ns_per_round += len(rows) * self.timing.t_rc_ns
            else:
                if self.bank(key).access(rows[0]):
                    static_activations += 1
                ns_per_round += len(rows) * self.timing.t_cas_ns
        flips: list[FlipEvent] = []
        activations = static_activations
        rounds_left = rounds
        elapsed = 0
        while rounds_left > 0:
            window_end = (self.current_refresh_epoch() + 1) * self.timing.t_refw_ns
            remaining_ns = window_end - self.clock.now_ns
            if ns_per_round > 0:
                chunk = min(rounds_left, max(1, remaining_ns // ns_per_round))
            else:
                chunk = rounds_left
            for key, per_row in activations_per_round.items():
                bank = self.bank(key)
                for row, count in per_row.items():
                    bank.bulk_activate(row, count * chunk)
                    activations += count * chunk
            self.clock.advance(chunk * ns_per_round)
            elapsed += chunk * ns_per_round
            for key, per_row in activations_per_round.items():
                flips.extend(self._evaluate_rows(key, tuple(per_row)))
            rounds_left -= chunk
            self._pump_timed()
        return HammerResult(rounds, rounds * len(phys_addrs), activations, elapsed, flips)

    def _coupling(self, distance: int) -> float:
        if distance == 1:
            return self.weak_cells.config.coupling_adjacent
        if distance == 2:
            return self.weak_cells.config.coupling_distance2
        return 0.0

    def _disturbance_on(self, bank, victim_row: int) -> float:
        total = 0.0
        for distance in range(1, self._max_coupling_distance + 1):
            factor = self._coupling(distance)
            if factor <= 0.0:
                continue
            for row in (victim_row - distance, victim_row + distance):
                if 0 <= row < self.geometry.rows_per_bank:
                    total += factor * bank.activations_in_window(row)
        return total

    def _apply_flips_scalar(self, key, victim_row, row_base, cells, disturbance):
        flips: list[FlipEvent] = []
        for cell in cells:
            if cell.threshold * self.threshold_scale > disturbance:
                continue
            addr = row_base + cell.byte_offset
            old = self.memory.get_bit(addr, cell.bit_in_byte)
            if old != cell.charged_value:
                continue
            flips.append(self._flip(key, victim_row, addr, cell.bit_in_byte, old))
        return flips

    def _evaluate_victim_row(self, key, victim_row: int) -> list[FlipEvent]:
        bank = self.bank(key)
        flat = self.geometry.flat_bank_index(*key)
        population = self.weak_cells.row_population(flat, victim_row)
        if population is None:
            return []
        disturbance = self._disturbance_on(bank, victim_row)
        if disturbance <= 0.0:
            return []
        if population.min_threshold * self.threshold_scale > disturbance:
            return []
        channel, rank, bank_index = key
        row_base = self.mapping.row_base_phys(channel, rank, bank_index, victim_row)
        if self.ecc is None and len(population) <= self._VECTOR_MIN_CELLS:
            cells = self.weak_cells.cells_in_row(flat, victim_row)
            return self._apply_flips_scalar(key, victim_row, row_base, cells, disturbance)
        armed = population.threshold * self.threshold_scale <= disturbance
        if not armed.any():
            return []
        if self.ecc is not None:
            return self._apply_flips_ecc(key, victim_row, row_base, population, armed)
        addrs = row_base + population.byte_offset[armed]
        bits = population.bit_in_byte[armed]
        current = self.memory.gather_bits(addrs, bits)
        hit = current == population.charged[armed]
        if not hit.any():
            return []
        return [
            self._flip(key, victim_row, flip_addr, flip_bit, old)
            for flip_addr, flip_bit, old in zip(
                addrs[hit].tolist(), bits[hit].tolist(), current[hit].tolist()
            )
        ]

    def _evaluate_around(self, key, row) -> list[FlipEvent]:
        return self._evaluate_rows(key, (row,))

    def _evaluate_rows(self, key, aggressor_rows) -> list[FlipEvent]:
        victims: set[int] = set()
        for row in aggressor_rows:
            for distance in range(1, self._max_coupling_distance + 1):
                for victim in (row - distance, row + distance):
                    if 0 <= victim < self.geometry.rows_per_bank:
                        victims.add(victim)
        flips: list[FlipEvent] = []
        for victim in sorted(victims):
            flips.extend(self._evaluate_victim_row(key, victim))
        return flips


# Aggressor rows include both bank edges, so victim and neighbour lists
# get clipped at row 0 and at the last row.
EDGE_ROWS = [0, 1, 2, 3, 5, 500, 502, GEO.rows_per_bank - 3, GEO.rows_per_bank - 1]
VICTIM_ROWS = sorted(
    {row + d for row in EDGE_ROWS for d in range(-2, 3)} & set(range(GEO.rows_per_bank))
)
# First rows of the (row, row + 2) pairs a "prime" op hammers.
PRIME_ROWS = [0, 1, 3, 500, GEO.rows_per_bank - 3]

# Rows may repeat, as in eviction-set bursts: a repeated row keeps its
# per-round count, and a list of one distinct row never activates.
_row_sets = st.lists(st.sampled_from(EDGE_ROWS), min_size=2, max_size=4)
_plan_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("hammer"), st.integers(0, 1), _row_sets,
            st.sampled_from([1_000, 30_000, 90_000, 250_000, 400_000]),
        ),
        st.tuples(
            st.just("access"), st.integers(0, 1), st.sampled_from(EDGE_ROWS), st.integers(1, 64)
        ),
        # A stream: one row run of ``count`` accesses per (bank, row), in order.
        st.tuples(
            st.just("stream"),
            st.lists(
                st.tuples(st.integers(0, 1), st.sampled_from(VICTIM_ROWS)),
                min_size=2, max_size=12,
            ),
            st.integers(1, 64),
        ),
        # Hammer a pair to ``margin`` rounds short of lifting the victim
        # between them to the scaled threshold floor.
        st.tuples(
            st.just("prime"), st.integers(0, 1), st.sampled_from(PRIME_ROWS),
            st.integers(0, 12),
        ),
        st.tuples(
            st.just("arm"), st.integers(0, 1), st.sampled_from(VICTIM_ROWS),
            st.sampled_from([0x00, 0xFF, 0x55]),
        ),
        st.tuples(st.just("idle"), st.integers(1, 40_000_000)),
    ),
    min_size=1,
    max_size=12,
)

_flip_configs = st.one_of(
    st.builds(
        lambda density, coupling_distance2: FlipModelConfig(
            weak_cells_per_row_mean=density,
            threshold_mean=150_000,
            threshold_sd=40_000,
            threshold_min=40_000,
            coupling_distance2=coupling_distance2,
        ),
        density=st.sampled_from([3.0, 24.0]),
        coupling_distance2=st.sampled_from([0.0, 0.3]),
    ),
    st.just(FlipModelConfig.highly_vulnerable()),
)


def _dram_state(controller) -> dict:
    """Everything an evaluation or a stream can change, telemetry aside."""
    return {
        "flips": list(controller.flip_log),
        "clock": controller.clock.now_ns,
        "ecc": controller.ecc_stats(),
        "stats": controller.stats(),
        "trr": controller.trr_stats(),
        "banks": {
            key: (bank.open_row, dict(bank.activations))
            for key, bank in controller._banks.items()
        },
    }


class TestVictimPlansMatchReference:
    """Victim plans, hammer layouts and the no-flip certificate against the
    per-victim evaluation they replaced."""

    @given(
        mapping=st.sampled_from([LinearMapping, XorBankMapping]),
        flip_config=_flip_configs,
        trr=st.booleans(),
        ecc=st.booleans(),
        threshold_scale=st.sampled_from([1.0, 0.6, 1.5]),
        seed=st.integers(0, 3),
        ops=_plan_ops,
    )
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_flip_logs_agree(self, mapping, flip_config, trr, ecc, threshold_scale, seed, ops):
        twins = []
        for cls in (MemoryController, ReferenceController):
            controller = cls(
                geometry=GEO,
                mapping=mapping(GEO),
                timing=DRAMTiming(),
                flip_config=flip_config,
                rng=RngStreams(seed),
                clock=SimClock(),
                trr_config=TrrConfig.ddr4_like(2, 60_000) if trr else None,
                ecc_config=EccConfig.secded64() if ecc else None,
            )
            controller.threshold_scale = threshold_scale
            for row in VICTIM_ROWS:
                for bank in (0, 1):
                    arm_row(controller, bank, row, 0xFF if row % 3 else 0x00)
            twins.append(controller)
        for op in ops:
            for controller in twins:
                _apply_plan_op(controller, op)
        fast, reference = twins
        assert _dram_state(fast) == _dram_state(reference)


def _apply_plan_op(controller, op) -> None:
    kind, *args = op
    if kind == "hammer":
        bank, rows, rounds = args
        controller.hammer(same_bank_pair(controller, bank=bank, rows=rows), rounds)
    elif kind == "access":
        bank, row, count = args
        phys = controller.mapping.to_phys(DRAMAddress(0, 0, bank, row, 0))
        controller.access(phys)
        if count > 1:
            controller.access_row_run(phys, count)
    elif kind == "stream":
        rows, count = args
        _stream(controller, [((0, 0, bank), row) for bank, row in rows], count)
    elif kind == "prime":
        bank, row, margin = args
        _prime(controller, bank, row, margin)
    elif kind == "arm":
        arm_row(controller, *args)
    else:
        controller.clock.advance(args[0])


def _stream(controller, bank_rows, count) -> None:
    """Serve a stream as the kernel does: one row run per page."""
    for key, row in bank_rows:
        controller.access_row(key, row, count)


def _prime(controller, bank, row, margin) -> None:
    """Hammer rows ``row`` and ``row + 2`` to ``margin`` rounds short of
    lifting the victim between them to the scaled threshold floor."""
    floor = controller.weak_cells.config.threshold_min * controller.threshold_scale
    rounds = max(1, int(floor / (2 * controller.weak_cells.config.coupling_adjacent)) - margin)
    controller.hammer(same_bank_pair(controller, bank=bank, rows=(row, row + 2)), rounds)


# Thresholds drawn around the floor: over a third of the cells sit on it.
# Adjacent coupling only, so the certificate's bound is tight: a victim
# between two rows at ``c`` activations each reads exactly ``2 * c``.
FLOOR_HEAVY = FlipModelConfig(
    weak_cells_per_row_mean=8.0, threshold_mean=45_000, threshold_sd=30_000,
    threshold_min=40_000, coupling_distance2=0.0,
)


class TestNoFlipCertificate:
    """What the certificate assumes and where it engages or refuses."""

    def test_every_threshold_is_clipped_to_the_floor(self):
        """The certificate's bound compares against ``threshold_min``: a
        threshold drawn below it must come out clipped to it."""
        controller = make_controller(flip_config=FLOOR_HEAVY)
        thresholds = [
            cell.threshold
            for row in range(64)
            for cell in controller.weak_cells.cells_in_row(0, row)
        ]
        assert min(thresholds) == FLOOR_HEAVY.threshold_min

    @staticmethod
    def _twins(flip_config, rows):
        twins = [
            cls(
                geometry=GEO, mapping=LinearMapping(GEO), timing=DRAMTiming(),
                flip_config=flip_config, rng=RngStreams(0), clock=SimClock(),
            )
            for cls in (MemoryController, ReferenceController)
        ]
        for twin in twins:
            for row in rows:
                arm_row(twin, 0, row)
        return twins

    @pytest.mark.parametrize("margin, flips", [(0, True), (1, False)])
    def test_hammer_exactly_to_the_floor_flips(self, margin, flips):
        """The victim between two rows hammered ``floor / 2`` times reads
        exactly the floor and must flip; one round less and the plan's
        certificate holds."""
        twins = self._twins(FLOOR_HEAVY, range(97, 104))
        for twin in twins:
            _prime(twin, 0, 99, margin)
        fast, reference = twins
        assert bool(fast.flip_log) is flips
        assert (fast.certified_evaluations > 0) is not flips
        assert _dram_state(fast) == _dram_state(reference)

    def test_access_reads_two_coupling_distances(self):
        """An access to row 100 re-evaluates victim 102, whose neighbour 103
        was hammered: the single-row certificate must read the counters up
        to four rows away."""
        twins = self._twins(make_controller().weak_cells.config, range(100, 108))
        phys = twins[0].mapping.to_phys(DRAMAddress(0, 0, 0, 100, 0))
        for twin in twins:
            twin.hammer(same_bank_pair(twin, rows=(103, 105)), 400_000)
            arm_row(twin, 0, 102)
            before = len(twin.flip_log)
            twin.access(phys)
            assert len(twin.flip_log) > before
        assert _dram_state(twins[0]) == _dram_state(twins[1])

    def test_quiet_accesses_skip_the_victims(self):
        controller = make_controller()
        phys = controller.mapping.to_phys(DRAMAddress(0, 0, 0, 100, 0))
        controller.access(phys)
        assert controller.certified_evaluations == 1
        _prime(controller, 0, 99, 0)
        before = controller.certified_evaluations
        controller.access(phys)  # row 100 sits between the primed rows
        assert controller.certified_evaluations == before

    def test_primed_stream_flips_and_an_idle_bank_stream_is_skipped(self):
        """A stream that alternates the primed rows pushes the victim
        between them over the floor, which the certificate can only see
        by reading the live counts the priming hammer left; every
        activation of a stream in an idle bank is certified."""
        near = [((0, 0, 0), row) for _ in range(4) for row in (99, 101)]
        far = [((0, 0, 1), row) for row in (300, 302, 304)]
        twins = self._twins(FLOOR_HEAVY, range(95, 106))
        for twin in twins:
            _prime(twin, 0, 99, 2)
            before = len(twin.flip_log)
            _stream(twin, near, 64)
            assert len(twin.flip_log) > before  # the primed stream flipped cells
        fast, reference = twins
        skipped = fast.certified_evaluations
        for twin in twins:
            _stream(twin, far, 64)
        assert fast.certified_evaluations - skipped == len(far)
        assert _dram_state(fast) == _dram_state(reference)


# Multi-window bursts: aggressors over three banks (a bank left with one
# distinct row row-hits), rows repeated as in eviction-set bursts, and a
# tREFW so short that a window holds tens of rounds, so windows that differ
# by one round differ by a few percent in every count.
LAZY_ROWS = [0, 1, 2, 5, 7, 9, 500, 502, GEO.rows_per_bank - 3, GEO.rows_per_bank - 1]
LAZY_VICTIMS = sorted(
    {row + d for row in LAZY_ROWS for d in range(-2, 3)} & set(range(GEO.rows_per_bank))
)
LAZY_BANKS = (0, 1, 2)
_bursts = st.tuples(
    st.just("burst"),
    st.lists(
        st.tuples(st.sampled_from(LAZY_BANKS), st.sampled_from(LAZY_ROWS)),
        min_size=8, max_size=20,
    ),
    st.integers(0, 99),  # idle time before it, in percent of a window
    st.integers(3, 8),   # refresh windows the burst spans at least
    st.integers(0, 99),  # extra rounds past them
)
# A burst first, then bursts and re-armed rows in any order.
_lazy_ops = st.tuples(
    _bursts,
    st.lists(
        st.one_of(
            _bursts,
            st.tuples(
                st.just("arm"), st.sampled_from(LAZY_BANKS), st.sampled_from(LAZY_VICTIMS),
                st.sampled_from([0x00, 0xFF, 0x55]),
            ),
        ),
        max_size=4,
    ),
).map(lambda ops: [ops[0], *ops[1]])
# Per-window counts of ten to a few hundred: thresholds around them arm
# cells in some windows and not in others.
_lazy_flip_configs = st.builds(
    lambda density, coupling_distance2: FlipModelConfig(
        weak_cells_per_row_mean=density,
        threshold_mean=150,
        threshold_sd=80,
        threshold_min=20,
        coupling_distance2=coupling_distance2,
    ),
    density=st.sampled_from([3.0, 24.0]),
    coupling_distance2=st.sampled_from([0.0, 0.3]),
)


def _burst_rounds(controller, addrs, windows, extra) -> int:
    """Rounds that make a hammer of ``addrs`` span ``windows`` refresh windows, plus ``extra``."""
    by_bank: dict = {}
    for phys in addrs:
        addr = controller.mapping.to_dram(phys)
        by_bank.setdefault(addr.bank_key(), []).append(addr.row)
    timing = controller.timing
    ns_per_round = sum(
        len(rows) * (timing.t_rc_ns if len(set(rows)) >= 2 else timing.t_cas_ns)
        for rows in by_bank.values()
    )
    return windows * timing.t_refw_ns // ns_per_round + extra


class TestLazyWindowsMatchReference:
    """Hammers across several refresh windows against the reference, which
    books and evaluates every window chunk: the lazy booking of a module
    without TRR or ECC must leave the same flips, clock, counters and
    lifetime totals, and TRR and ECC modules must keep per-chunk booking."""

    @given(
        mapping=st.sampled_from([LinearMapping, XorBankMapping]),
        flip_config=_lazy_flip_configs,
        refw=st.sampled_from([9_000, 20_000]),
        trr=st.booleans(),
        ecc=st.booleans(),
        threshold_scale=st.sampled_from([1.0, 0.6, 1.5]),
        seed=st.integers(0, 3),
        ops=_lazy_ops,
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bursts_agree(self, mapping, flip_config, refw, trr, ecc, threshold_scale, seed, ops):
        twins = []
        for cls in (MemoryController, ReferenceController):
            controller = cls(
                geometry=GEO,
                mapping=mapping(GEO),
                timing=DRAMTiming(t_refw_ns=refw),
                flip_config=flip_config,
                rng=RngStreams(seed),
                clock=SimClock(),
                trr_config=TrrConfig.ddr4_like(2, 60) if trr else None,
                ecc_config=EccConfig.secded64() if ecc else None,
            )
            controller.threshold_scale = threshold_scale
            for bank in LAZY_BANKS:
                for row in LAZY_VICTIMS:
                    arm_row(controller, bank, row, 0xFF if row % 3 else 0x00)
            twins.append(controller)
        for op in ops:
            for controller in twins:
                _apply_lazy_op(controller, op)
        fast, reference = twins
        assert _dram_state(fast) == _dram_state(reference)  # refresh count included
        assert {key: bank.total_activations for key, bank in fast._banks.items()} == {
            key: bank.total_activations for key, bank in reference._banks.items()
        }
        # Every burst spans three windows, so one without TRR or ECC books lazily.
        assert (fast.lazy_windows > 0) is not (trr or ecc)


def _apply_lazy_op(controller, op) -> None:
    kind, *args = op
    if kind == "burst":
        bank_rows, idle, windows, extra = args
        controller.clock.advance(idle * controller.timing.t_refw_ns // 100)
        addrs = [
            controller.mapping.to_phys(DRAMAddress(0, 0, bank, row, 0)) for bank, row in bank_rows
        ]
        controller.hammer(addrs, _burst_rounds(controller, addrs, windows, extra))
    else:
        arm_row(controller, *args)
