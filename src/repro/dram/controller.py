"""Memory controller: routes accesses, counts activations, applies flips.

The controller is the single entry point for DRAM traffic.  It

* resolves physical addresses through the configured
  :class:`~repro.dram.mapping.AddressMapping`;
* drives the per-bank row-buffer state machines (so row hits cost
  ``t_cas_ns`` and cause no disturbance, while row conflicts cost
  ``t_rc_ns`` and count as activations);
* rolls the refresh window: a tick on the ``"dram"`` queue of the
  :class:`~repro.sim.events.EventScheduler` fires whenever simulated time
  crosses a ``t_refw_ns`` boundary and resets every bank's activation
  counters — disturbance cannot accumulate across windows.  The window is
  fixed per machine: it is ``timing.t_refw_ns`` for the controller's whole
  life, so the refresh epoch ``now // t_refw_ns`` of the monotone clock
  never decreases (the kernel's activation ledger relies on this);
* evaluates the weak-cell model after activations and applies resulting bit
  flips directly to :class:`~repro.dram.memory.PhysicalMemory`, logging a
  :class:`FlipEvent` for each.  The victims of a set of aggressor rows are
  a static **victim plan** per (bank, aggressor rows): the neighbouring
  rows that hold weak cells, with their populations, row bases,
  coupling-weighted neighbour lists and one flat record per weak cell.
  Plans are memoised, kept out of snapshots and shared by forks; an
  evaluation is then one weighted sum over the bank's window counters per
  victim.

Before any victim work an evaluation asks the **no-flip certificate**
(:meth:`MemoryController._certifies`) whether a flip is possible at all.
Its exactness rests on four facts:

* every weak cell's threshold is clipped to at least
  ``FlipModelConfig.threshold_min`` when it is drawn (``WeakCellMap``), and
  a plan's own minimum threshold bounds its cells from below;
* a victim's disturbance is a sum of coupling factors times its
  neighbours' window counts, so it is at most the summed factors times the
  largest count within coupling reach;
* the bound reads the live bank counters and ``threshold_scale`` at the
  instant of the evaluation, so a hammer earlier in the same window is
  honoured; counts grow only through activations, and TRR only ever lowers
  them (``TrrState.observe`` returns the count or its remainder);
* the disturbance is a float sum of at most four products, so the bound
  carries a relative margin far above its rounding error.

When the bound stays below the threshold no cell can arm, so skipping the
evaluation changes nothing.

Besides the single-access path there are two closed-form paths:

* the **hammer fast path** (:meth:`MemoryController.hammer`) applies
  ``rounds`` iterations of an alternating flush+access loop in O(banks)
  instead of O(rounds) Python work.  It preserves the two properties that
  make hammering subtle: aggressor pairs must share a bank to force
  activations, and activation counts are clipped to what fits in each
  refresh window.  What it derives from the address list alone (mapping,
  bank grouping, per-row counts, victim plans) is a **hammer layout**,
  memoised next to the victim plans.  A burst that has just crossed a
  refresh and still spans a whole window is **booked lazily**: its rounds
  add up in one integer, the bank counters are written only just before a
  plan walk and at the end, a refresh books only the lifetime totals, and
  the plans are walked only when the rounds booked in the current window
  exceed the most this burst has already walked;
* the **row run** (:meth:`MemoryController.access_row_run`) serves the
  cache misses of one page as back-to-back accesses to one row: at most
  one activation, then row hits.  The kernel uses it only while
  :meth:`MemoryController.is_quiet_until` rules out a refresh inside the
  run, which makes it exactly equal to one :meth:`access` per line.  A
  multi-page stream maps all its pages in one pass
  (:meth:`MemoryController.bank_rows`) and runs each page's row through
  :meth:`MemoryController.access_row`.

Lazy booking is exact on a module without TRR or ECC, for four reasons:

* no store happens inside a hammer, so no cell is recharged mid-call;
* ``threshold_scale`` cannot change mid-call (only the refresh tick runs);
* flips only discharge cells, and each weak cell has its own bit;
* after a refresh every active row's count is its per-round count times
  one shared integer, so every victim's disturbance is monotone in the
  window's rounds (a float product and sum round monotonically).

A walk at no more rounds than an earlier walk of the same burst therefore
finds every cell it could arm already flipped or not charged, and flips
nothing.  TRR and ECC modules keep per-chunk booking.  TRR's tracker
observes and clamps each booking in sequence, so fewer, larger bookings
change its counts.  On an ECC module a skipped re-walk would only have
re-registered cells still pending in their word, which
``EccState.register_flip`` ignores; the argument above does not cover
that state, and no workload hammers an ECC module across windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from repro.dram.bank import Bank
from repro.dram.ecc import EccConfig, EccState
from repro.dram.flipmodel import FlipModelConfig, RowPopulation, WeakCellMap
from repro.dram.trr import TrrConfig, TrrState
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import AddressMapping
from repro.dram.memory import PhysicalMemory
from repro.dram.timing import DRAMTiming
from repro.obs import NOOP_OBS
from repro.sim.clock import SimClock
from repro.sim.errors import ConfigError
from repro.sim.events import EventScheduler
from repro.sim.rng import RngStreams
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE


@dataclass(frozen=True)
class FlipEvent:
    """One disturbance-induced bit flip, as observed at the controller."""

    time_ns: int
    phys_addr: int
    bit_in_byte: int
    direction_1_to_0: bool
    bank_key: tuple[int, int, int]
    row: int

    @property
    def pfn(self) -> int:
        """Page frame number containing the flipped bit."""
        return self.phys_addr >> PAGE_SHIFT

    @property
    def page_offset(self) -> int:
        """Byte offset of the flipped bit inside its 4 KiB page."""
        return self.phys_addr & ((1 << PAGE_SHIFT) - 1)

    def __str__(self) -> str:
        arrow = "1->0" if self.direction_1_to_0 else "0->1"
        return (
            f"FlipEvent(pa={self.phys_addr:#x} bit={self.bit_in_byte} {arrow} "
            f"bank={self.bank_key} row={self.row:#x} t={self.time_ns}ns)"
        )


@dataclass
class HammerResult:
    """Outcome of one hammer call."""

    rounds: int
    accesses: int
    activations: int
    elapsed_ns: int
    flips: list[FlipEvent] = field(default_factory=list)

    @property
    def ns_per_round(self) -> float:
        """Average simulated time per hammer round."""
        return self.elapsed_ns / self.rounds if self.rounds else 0.0


class _Victim(NamedTuple):
    """One victim row of a plan (see :meth:`MemoryController._victim_plan`)."""

    row: int
    population: RowPopulation
    #: One flat ``(threshold, phys addr, pfn, page offset, bit, charged
    #: value)`` record per weak cell, in bit-index order.
    cells: tuple[tuple[int, int, int, int, int, int], ...]
    row_base: int
    min_threshold: int
    #: ``(row, coupling factor)`` of each neighbour, flattened and padded
    #: with ``(-1, 0.0)`` to four neighbours (see :meth:`_victim_plan`).
    neighbours: tuple[int, float, int, float, int, float, int, float]


class _Plan(NamedTuple):
    """The victims of one (bank, aggressor rows) pair, with its certificate inputs."""

    victims: tuple[_Victim, ...]
    #: Every neighbour row of every victim: the counters their disturbance reads.
    reach: tuple[int, ...]
    #: The lowest weak-cell threshold over all victims.
    min_threshold: int


class _HammerLayout(NamedTuple):
    """What :meth:`MemoryController._hammer` derives from its address list alone."""

    #: ``(bank key, row)`` of each bank that holds one distinct row.
    static: tuple[tuple[tuple[int, int, int], int], ...]
    #: ``(bank key, ((row, activations per round), ...), plan or None)`` of
    #: each bank that holds two or more distinct rows.
    active: tuple[tuple[tuple[int, int, int], tuple[tuple[int, int], ...], _Plan | None], ...]
    #: Accesses per round that activate a row (all of them in active banks).
    activating: int
    #: Accesses per round that hit an open row (all of them in static banks).
    hitting: int


# Relative slack on the certificate's bound: a disturbance is a float sum of
# at most four products, whose rounding error is about 1e-15 of the exact sum.
_MARGIN = 1.0 + 1e-9
_ZEROS = repeat(0)


class MemoryController:
    """Single point of DRAM access for the whole simulated machine."""

    def __init__(
        self,
        geometry: DRAMGeometry,
        mapping: AddressMapping,
        timing: DRAMTiming,
        flip_config: FlipModelConfig,
        rng: RngStreams,
        clock: SimClock,
        trr_config: TrrConfig | None = None,
        ecc_config: EccConfig | None = None,
        events: EventScheduler | None = None,
    ):
        if mapping.geometry is not geometry:
            raise ConfigError("mapping was built for a different geometry")
        self.geometry = geometry
        self.mapping = mapping
        self.timing = timing
        self.trr_config = trr_config or TrrConfig.disabled()
        self.ecc_config = ecc_config or EccConfig.disabled()
        self.clock = clock
        self.memory = PhysicalMemory(geometry.total_bytes)
        self.ecc: EccState | None = None
        if self.ecc_config.enabled:
            self.ecc = EccState(self.ecc_config)
            self.memory.write_hook = self.ecc.clear_range
        self.weak_cells = WeakCellMap(geometry, flip_config, rng)
        # Chaos-injection hook (repro.sim.chaos): ``threshold_scale``
        # multiplies every weak cell's flip threshold (environmental drift —
        # >1 hardens the module, <1 softens it).  It stays 1.0 unless a
        # ChaosEngine is driving it, preserving the baseline behaviour
        # bit-for-bit.
        self.threshold_scale = 1.0
        self._banks: dict[tuple[int, int, int], Bank] = {}
        self.flip_log: list[FlipEvent] = []
        self.refresh_count = 0
        # Victim rows checked per flip evaluation: +-1 always, +-2 when the
        # distance-2 coupling is non-zero.
        self._max_coupling_distance = 2 if flip_config.coupling_distance2 > 0 else 1
        # The no-flip certificate (see _certifies): an activation of row r
        # can only move the disturbance of victims whose neighbours lie
        # within _reach rows of r, and no victim sums more coupling than
        # _coupling_sum.
        self._reach = 2 * self._max_coupling_distance
        self._coupling_sum = 2 * flip_config.coupling_adjacent
        if self._max_coupling_distance == 2:
            self._coupling_sum += 2 * flip_config.coupling_distance2
        # Victim evaluations the certificate skipped (telemetry only:
        # sim.shortcut.certified_evaluations).
        self.certified_evaluations = 0
        # Refresh windows a hammer crossed while booking lazily (telemetry
        # only: sim.shortcut.lazy_windows), see _hammer.
        self.lazy_windows = 0
        # (bank key, aggressor rows) -> victim plan (None: no victims), see
        # _victim_plan; and hammer address tuple -> hammer layout, see
        # _hammer_layout.  The two key shapes never collide.
        self._plan_memo: dict[tuple, _Plan | _HammerLayout | None] = {}
        # Refresh is a self-rescheduling tick on the "dram" scheduler queue.
        self._events = events or EventScheduler(clock)
        self._schedule_refresh_tick()
        self.bind_obs(NOOP_OBS)

    def bind_obs(self, obs) -> None:
        """Attach an observability hub (see docs/OBSERVABILITY.md).

        Live instrumentation only touches moderate-rate paths (hammer
        calls, refresh rollovers, flip events); per-access totals are
        sourced from the existing bank counters by a snapshot-time
        collector so :meth:`access` stays uninstrumented.
        """
        self.obs = obs
        metrics = obs.metrics
        self._m_refresh = metrics.counter("dram.refresh.windows")
        self._m_flips = metrics.counter("dram.flips")
        self._m_hammer_calls = metrics.counter("dram.hammer.calls")
        self._m_hammer_rounds = metrics.counter("dram.hammer.rounds")
        self._m_hammer_acts = metrics.histogram("dram.hammer.activations_per_call")
        metrics.add_collector(self._metric_values)

    def _metric_values(self) -> dict:
        """The collector-sourced ``dram.*`` gauges and the shortcut counts."""
        stats = self.stats()
        trr = self.trr_stats()
        ecc = self.ecc_stats()
        memory = self.memory
        return {
            "dram.activations": stats["activations"],
            "dram.row_buffer.hits": stats["row_hits"],
            "dram.banks_touched": stats["banks_touched"],
            "dram.trr.neighbor_refreshes": trr["neighbor_refreshes"],
            "dram.trr.tracker_misses": trr["tracker_misses"],
            "sim.shortcut.certified_evaluations": self.certified_evaluations,
            "sim.shortcut.lazy_windows": self.lazy_windows,
            "dram.ecc.corrected_bits": ecc["corrected_bits"],
            "dram.ecc.uncorrectable_events": ecc["uncorrectable_events"],
            "dram.memory.cow.materialized_frames": memory.materialized_frames(),
            "dram.memory.cow.shared_frames": memory.shared_frames(),
            "dram.memory.cow.copied_frames": memory.cow_copies,
            "dram.memory.cow.shares": memory.cow_shares,
        }

    # -- bank/refresh plumbing ---------------------------------------------

    def bank(self, key: tuple[int, int, int]) -> Bank:
        """The (lazily created) bank state for a (channel, rank, bank) key."""
        state = self._banks.get(key)
        if state is None:
            self.geometry.validate_bank(*key)
            trr = TrrState(self.trr_config) if self.trr_config.enabled else None
            state = Bank(self.geometry.rows_per_bank, trr=trr)
            self._banks[key] = state
        return state

    def ecc_stats(self) -> dict[str, int]:
        """ECC correction counters (zeros when ECC is disabled)."""
        if self.ecc is None:
            return {"corrected_bits": 0, "uncorrectable_events": 0, "pending_words": 0}
        return {
            "corrected_bits": self.ecc.corrected_bits,
            "uncorrectable_events": self.ecc.uncorrectable_events,
            "pending_words": self.ecc.pending_words(),
        }

    def trr_stats(self) -> dict[str, int]:
        """Aggregate TRR sampler activity across banks (zeros if disabled)."""
        refreshes = 0
        misses = 0
        for bank in self._banks.values():
            if bank.trr is not None:
                refreshes += bank.trr.neighbor_refreshes
                misses += bank.trr.tracker_misses
        return {"neighbor_refreshes": refreshes, "tracker_misses": misses}

    def _schedule_refresh_tick(self) -> None:
        """Aim the next tick at the end of the current window.

        Every tick then opens a new epoch, also on a clock that started past
        its first window (``SimClock(start_ns)``).
        """
        refw = self.timing.t_refw_ns
        due = (self.clock.now_ns // refw + 1) * refw
        self._events.schedule("dram.refresh.tick", due, self._on_refresh_tick, queue="dram")

    def _on_refresh_tick(self, now_ns: int) -> None:
        for bank in self._banks.values():
            bank.refresh()
        self.refresh_count += 1
        self._m_refresh.inc()
        self.obs.tracer.instant(
            "dram.refresh", "dram", epoch=now_ns // self.timing.t_refw_ns
        )
        self._schedule_refresh_tick()

    def _pump_timed(self) -> None:
        """Advance timed behaviour at an access boundary.

        Drains the "dram" scheduler queue, where the refresh tick lives.
        """
        self._events.dispatch_due("dram")

    def current_refresh_epoch(self) -> int:
        """Index of the refresh window containing the current time."""
        return self.clock.now_ns // self.timing.t_refw_ns

    # -- disturbance evaluation ------------------------------------------------

    _MEMO_LIMIT = 65536

    # Rows with at most this many weak cells are evaluated with the scalar
    # per-cell loop: numpy's fixed per-call overhead (~tens of µs) beats the
    # Python loop only once a row holds a few dozen cells.
    _VECTOR_MIN_CELLS = 16

    def _victim_plan(
        self, key: tuple[int, int, int], aggressor_rows: tuple[int, ...]
    ) -> _Plan | None:
        """The victims of ``aggressor_rows`` in bank ``key`` that hold weak cells.

        Victims are every row within coupling distance of an aggressor,
        sorted; None when none of them holds a weak cell.  Each carries its
        neighbours with their coupling factors in the order ``row-1, row+1,
        row-2, row+2``, which fixes the order of the disturbance sum, and
        one flat record per weak cell.  Neighbours are padded to four with
        ``(-1, 0.0)``, so the sum is one expression: row -1 has no counter,
        and adding a 0.0 term leaves a non-negative float sum unchanged.
        ``row_base + byte_offset`` stands in for a per-cell ``to_phys``: the
        column field occupies the low physical-address bits in every
        mapping, so adding the byte offset to the row base is exact.  Each
        victim row's address range is checked here, once, so the per-cell
        scan reads memory unchecked.
        """
        memo_key = (key, aggressor_rows)
        try:
            return self._plan_memo[memo_key]
        except KeyError:
            pass
        rows = self.geometry.rows_per_bank
        config = self.weak_cells.config
        distances = range(1, self._max_coupling_distance + 1)
        couplings = (config.coupling_adjacent, config.coupling_distance2)
        victims = {
            victim
            for row in aggressor_rows
            for distance in distances
            for victim in (row - distance, row + distance)
            if 0 <= victim < rows
        }
        flat = self.geometry.flat_bank_index(*key)
        plan_rows = []
        for victim in sorted(victims):
            population = self.weak_cells.row_population(flat, victim)
            if population is None:
                continue
            neighbours = [
                (row, couplings[distance - 1])
                for distance in distances
                if couplings[distance - 1] > 0.0
                for row in (victim - distance, victim + distance)
                if 0 <= row < rows
            ]
            neighbours += [(-1, 0.0)] * (4 - len(neighbours))
            row_base = self.mapping.row_base_phys(*key, victim)
            self.memory.check_range(row_base, self.geometry.row_bytes)
            addrs = (row_base + population.byte_offset).tolist()
            cells = tuple(
                (threshold, addr, addr >> PAGE_SHIFT, addr & (PAGE_SIZE - 1), bit, charged)
                for threshold, addr, bit, charged in zip(
                    population.threshold.tolist(),
                    addrs,
                    population.bit_in_byte.tolist(),
                    population.charged.tolist(),
                )
            )
            plan_rows.append(_Victim(
                victim,
                population,
                cells,
                row_base,
                population.min_threshold,
                tuple(value for neighbour in neighbours for value in neighbour),
            ))
        plan = None
        if plan_rows:
            plan = _Plan(
                tuple(plan_rows),
                tuple(sorted({
                    row for victim in plan_rows for row in victim.neighbours[::2] if row >= 0
                })),
                min(victim.min_threshold for victim in plan_rows),
            )
        if len(self._plan_memo) >= self._MEMO_LIMIT:
            self._plan_memo.clear()
        self._plan_memo[memo_key] = plan
        return plan

    def _certifies(self, activations: dict[int, int], rows, threshold: int) -> bool:
        """True if no victim reading only ``rows``' counters can reach ``threshold``.

        The no-flip certificate.  A victim's disturbance is a sum of coupling
        factors times its neighbours' window counts, so it is at most
        ``_coupling_sum`` times the largest live count among ``rows``.  When
        that bound, with :data:`_MARGIN` for float rounding, stays below
        ``threshold * threshold_scale``, where ``threshold`` is at most every
        victim cell's own threshold, no cell can arm and the evaluation would
        flip nothing.
        """
        live = max(map(activations.get, rows, _ZEROS), default=0) if activations else 0
        return self._coupling_sum * live * _MARGIN < threshold * self.threshold_scale

    def _evaluate_around(self, key: tuple[int, int, int], row: int) -> list[FlipEvent]:
        """Flip every armed weak cell near the just activated ``row``.

        A victim's disturbance is the coupling-weighted sum of its
        neighbours' activations in the current window.  The no-flip
        certificate (:meth:`_certifies`) runs first, over the counters
        within ``_reach`` rows of ``row`` and the module's threshold floor:
        every weak cell's threshold is clipped to at least
        ``FlipModelConfig.threshold_min`` when it is drawn.  If it holds, no
        plan is looked up or walked.
        """
        activations = self.bank(key).activations
        reach = self._reach
        if self._certifies(
            activations, range(row - reach, row + reach + 1), self.weak_cells.config.threshold_min
        ):
            self.certified_evaluations += 1
            return []
        plan = self._victim_plan(key, (row,))
        return [] if plan is None else self._walk_plan(key, plan.victims, activations)

    def _evaluate_plan(
        self, key: tuple[int, int, int], plan: _Plan, activations: dict[int, int]
    ) -> list[FlipEvent]:
        """Flip every armed weak cell of a hammer's plan, unless its certificate holds.

        ``activations`` are the window counters of bank ``key``.  The
        certificate reads the plan's reach and compares against its lowest
        threshold, which is tighter than the module's floor.
        """
        if self._certifies(activations, plan.reach, plan.min_threshold):
            self.certified_evaluations += 1
            return []
        return self._walk_plan(key, plan.victims, activations)

    def _walk_plan(
        self, key: tuple[int, int, int], victims: tuple[_Victim, ...], activations: dict[int, int]
    ) -> list[FlipEvent]:
        """Apply the flips of every victim whose disturbance arms a cell.

        Dense rows and ECC modules run the threshold test as one vector
        compare over the row's columnar population
        (:meth:`_apply_flips_vector`).  Sparse rows (the common case) scan
        their flat cell records here; each armed cell's bit is read from the
        live memory at that instant, since a flip earlier in the scan may
        have rewritten its byte, and forks share plans but not memory.
        """
        scale = self.threshold_scale
        count = activations.get
        scalar = self.ecc is None
        dense = self._VECTOR_MIN_CELLS
        frame_bit = self.memory.frame_bit
        flips: list[FlipEvent] = []
        for row, population, cells, row_base, min_threshold, neighbours in victims:
            n1, f1, n2, f2, n3, f3, n4, f4 = neighbours
            disturbance = (
                f1 * count(n1, 0) + f2 * count(n2, 0) + f3 * count(n3, 0) + f4 * count(n4, 0)
            )
            if disturbance <= 0.0 or min_threshold * scale > disturbance:
                continue
            if not scalar or len(cells) > dense:
                flips.extend(
                    self._apply_flips_vector(key, row, row_base, population, disturbance)
                )
                continue
            for threshold, addr, pfn, offset, bit, charged in cells:
                if threshold * scale <= disturbance and frame_bit(pfn, offset, bit) == charged:
                    flips.append(self._flip(key, row, addr, bit, charged))
        return flips

    def _apply_flips_vector(
        self,
        key: tuple[int, int, int],
        victim_row: int,
        row_base: int,
        population: RowPopulation,
        disturbance: float,
    ) -> list[FlipEvent]:
        """One vector threshold compare over the row's population."""
        armed = population.threshold * self.threshold_scale <= disturbance
        if not armed.any():
            return []
        if self.ecc is not None:
            return self._apply_flips_ecc(key, victim_row, row_base, population, armed)
        # Data-pattern dependence: a cell only flips while it holds its
        # charged value; once flipped it stays flipped until rewritten.
        # Without ECC each flip touches only its own (unique) bit, so the
        # pattern check can be gathered up front in one vector read.
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

    def _flip(
        self, key: tuple[int, int, int], row: int, addr: int, bit: int, old: int
    ) -> FlipEvent:
        """Flip the charged bit ``old`` at ``(addr, bit)`` and record it."""
        self.memory.apply_disturbance_flip(addr, bit, old ^ 1)
        event = FlipEvent(
            time_ns=self.clock.now_ns,
            phys_addr=addr,
            bit_in_byte=bit,
            direction_1_to_0=bool(old),
            bank_key=key,
            row=row,
        )
        self.flip_log.append(event)
        self._m_flips.inc()
        self.obs.tracer.instant("dram.flip", "dram", phys_addr=addr, bit=bit, row=row)
        return event

    def _apply_flips_ecc(
        self,
        key: tuple[int, int, int],
        victim_row: int,
        row_base: int,
        population,
        armed,
    ) -> list[FlipEvent]:
        """Scalar application path for ECC modules.

        SECDED: a lone flipped bit per word is corrected away; only a second
        bit in the same word makes the corruption visible (and then the whole
        word's pending bits land).  Because applying one cell's pending word
        can rewrite bytes that later cells in the same row read, the
        data-pattern check must stay interleaved with application — only the
        threshold filter is vectorised.
        """
        flips: list[FlipEvent] = []
        for byte_off, bit_in_byte, charged_value in zip(
            population.byte_offset[armed].tolist(),
            population.bit_in_byte[armed].tolist(),
            population.charged[armed].tolist(),
        ):
            addr = row_base + byte_off
            if self.memory.get_bit(addr, bit_in_byte) != charged_value:
                continue
            to_apply = self.ecc.register_flip(addr, bit_in_byte)
            for flip_addr, flip_bit in to_apply:
                old = self.memory.get_bit(flip_addr, flip_bit)
                flips.append(self._flip(key, victim_row, flip_addr, flip_bit, old))
        return flips

    # -- access paths ------------------------------------------------------------

    def access(self, phys: int) -> bool:
        """One uncached DRAM access; returns True if it activated a row.

        Reads and writes have the same activation behaviour in this model.
        """
        self._pump_timed()
        return self.access_row_run(phys, 1)

    def is_quiet_until(self, end_ns: int) -> bool:
        """True if no timed DRAM behaviour can fire before ``end_ns``.

        Timed behaviour is what :meth:`_pump_timed` runs at an access
        boundary: the "dram" scheduler queue, where the refresh tick lives.
        Accesses that all start before ``end_ns`` may then skip the pump
        without changing anything.
        """
        due = self._events.next_due_ns("dram")
        return due is None or end_ns <= due

    def access_row_run(self, phys: int, count: int) -> bool:
        """``count`` back-to-back DRAM accesses to the row holding ``phys``.

        Returns True if the first access activated the row.  Timed behaviour
        is not pumped: :meth:`access` pumps before its single access, and a
        run of more than one access needs :meth:`is_quiet_until` to hold for
        its whole span.  The run is then exact in closed form.  The first
        access is a normal row-buffer access; if it activates, the clock
        reads ``now + t_rc`` when the neighbours' flips are evaluated, as on
        the per-access path.  Every later access is a row hit on the row the
        first one opened, reads no clock and changes no activation count, so
        they are booked together as ``count - 1`` hits of ``t_cas`` each.
        """
        addr = self.mapping.to_dram(phys)
        return self.access_row(addr.bank_key(), addr.row, count)

    def bank_rows(self, phys) -> list[tuple[tuple[int, int, int], int]]:
        """``(bank key, row)`` of each physical address, mapped in one pass."""
        channel, rank, bank, row = self.mapping.bank_rows(phys)
        keys = zip(channel.tolist(), rank.tolist(), bank.tolist())
        return list(zip(keys, row.tolist()))

    def access_row(self, key: tuple[int, int, int], row: int, count: int) -> bool:
        """:meth:`access_row_run` on an already mapped (bank key, row).

        An activation evaluates the row's neighbours through
        :meth:`_evaluate_around`, whose no-flip certificate skips the victim
        work when no cell near the row can reach its threshold.
        """
        activated = self.bank(key).access_run(row, count)
        if activated:
            self.clock.advance(self.timing.t_rc_ns)
            self._evaluate_around(key, row)
            self.clock.advance((count - 1) * self.timing.t_cas_ns)
        else:
            self.clock.advance(count * self.timing.t_cas_ns)
        return activated

    def hammer(self, phys_addrs: list[int], rounds: int) -> HammerResult:
        """Apply ``rounds`` iterations of a flush+access loop over the addresses.

        Semantics match a loop of ``access()`` calls with every address
        flushed from cache between rounds.  Addresses that are alone in
        their bank stay in the row buffer, so only banks holding **two or
        more distinct rows** accumulate activations — the caller learns this
        through the ``activations`` count of the result.

        Activation counting is clipped per refresh window: if the loop's
        simulated duration spans a window boundary, the counters reset at
        the boundary exactly as real refresh would, and flips are evaluated
        once per window chunk, except for the chunks a lazily booked burst
        proves flip-free (:meth:`_hammer`).
        """
        if rounds <= 0:
            raise ConfigError(f"rounds must be positive, got {rounds}")
        if not phys_addrs:
            raise ConfigError("hammer needs at least one address")
        span = self.obs.tracer.span(
            "dram.hammer", "dram", addresses=len(phys_addrs), rounds=rounds
        )
        with span:
            result = self._hammer(phys_addrs, rounds)
            span.set("activations", result.activations)
            span.set("flips", len(result.flips))
        self._m_hammer_calls.inc()
        self._m_hammer_rounds.inc(rounds)
        self._m_hammer_acts.observe(result.activations)
        return result

    def _hammer_layout(self, phys_addrs: list[int]) -> _HammerLayout:
        """The bank layout of a hammer's address list, memoised per address tuple.

        Maps every address once, groups the rows by bank in first-appearance
        order, counts each row's accesses per round (a row repeated in the
        list, as in eviction-set bursts, keeps its count) and builds each
        multi-row bank's victim plan.  Layouts are pure functions of the
        mapping and the weak-cell map, like victim plans, so they live in
        the plan memo, keyed by the address tuple: bounded, kept out of
        snapshots and shared with forks.
        """
        memo_key = tuple(phys_addrs)
        layout = self._plan_memo.get(memo_key)
        if layout is not None:
            return layout
        by_bank: dict[tuple[int, int, int], list[int]] = {}
        for phys in phys_addrs:
            addr = self.mapping.to_dram(phys)
            by_bank.setdefault(addr.bank_key(), []).append(addr.row)
        static = []
        active = []
        activating = hitting = 0
        for key, rows in by_bank.items():
            if len(set(rows)) >= 2:
                per_row: dict[int, int] = {}
                for row in rows:
                    per_row[row] = per_row.get(row, 0) + 1
                active.append((key, tuple(per_row.items()), self._victim_plan(key, tuple(per_row))))
                activating += len(rows)
            else:
                static.append((key, rows[0]))
                hitting += len(rows)
        layout = _HammerLayout(tuple(static), tuple(active), activating, hitting)
        if len(self._plan_memo) >= self._MEMO_LIMIT:
            self._plan_memo.clear()
        self._plan_memo[memo_key] = layout
        return layout

    def _hammer(self, phys_addrs: list[int], rounds: int) -> HammerResult:
        """The hammer loop over the address list's compiled layout.

        A bank holding a single row opens it once and then row-hits
        forever; every access to a bank holding two or more distinct rows
        activates.  Each window chunk bulk-activates the active rows, then
        evaluates each active bank's plan (:meth:`_evaluate_plan`), whose
        certificate skips the victim work while the chunk's counts cannot
        reach the plan's lowest threshold.

        Once a refresh has cleared every counter and the rest of the burst
        still spans a whole window, a module without TRR or ECC books the
        burst lazily (module docstring): ``pending`` rounds are written to
        the banks only just before a plan walk and at the end, a refresh
        books only their lifetime totals, and plans are walked only when
        the ``window`` rounds exceed the most this burst has ``walked``.
        The entry test runs once per refresh crossed, so the one- and
        two-window hammers of templating, steering and PFA keep per-chunk
        booking at its old cost.
        """
        self._pump_timed()
        layout = self._hammer_layout(phys_addrs)
        ns_per_round = (
            layout.activating * self.timing.t_rc_ns + layout.hitting * self.timing.t_cas_ns
        )
        total_activations = 0
        for key, row in layout.static:
            if self.bank(key).access(row):
                total_activations += 1
        active = [(self.bank(key), per_row, plan, key) for key, per_row, plan in layout.active]

        clock = self.clock
        refw = self.timing.t_refw_ns
        refreshes = self.refresh_count
        lazy = False
        pending = window = walked = 0
        total_flips: list[FlipEvent] = []
        rounds_left = rounds
        elapsed = 0
        while rounds_left > 0:
            window_end = (clock.now_ns // refw + 1) * refw
            remaining_ns = window_end - clock.now_ns
            if ns_per_round > 0:
                chunk = min(rounds_left, max(1, remaining_ns // ns_per_round))
            else:
                chunk = rounds_left
            total_activations += layout.activating * chunk
            clock.advance(chunk * ns_per_round)
            elapsed += chunk * ns_per_round
            pending += chunk
            window += chunk
            if window > walked:
                for bank, per_row, _, _ in active:
                    for row, count in per_row:
                        bank.bulk_activate(row, count * pending)
                pending = 0
                for bank, _, plan, key in active:
                    if plan is not None:
                        total_flips.extend(self._evaluate_plan(key, plan, bank.activations))
                if lazy:
                    walked = window
            rounds_left -= chunk
            self._pump_timed()
            if self.refresh_count != refreshes:
                refreshes = self.refresh_count
                window = 0
                if lazy:
                    self.lazy_windows += 1
                    for bank, per_row, _, _ in active:
                        bank.total_activations += pending * sum(count for _, count in per_row)
                    pending = 0
                else:
                    lazy = (
                        rounds_left * ns_per_round >= refw
                        and self.ecc is None
                        and not self.trr_config.enabled
                    )
        if pending:
            for bank, per_row, _, _ in active:
                for row, count in per_row:
                    bank.bulk_activate(row, count * pending)

        return HammerResult(
            rounds=rounds,
            accesses=rounds * len(phys_addrs),
            activations=total_activations,
            elapsed_ns=elapsed,
            flips=total_flips,
        )

    # -- statistics --------------------------------------------------------------

    def total_activations(self) -> int:
        """Lifetime activations across all banks."""
        return sum(bank.total_activations for bank in self._banks.values())

    def flips_in_pfn(self, pfn: int) -> list[FlipEvent]:
        """All logged flips that landed in page frame ``pfn``."""
        return [event for event in self.flip_log if event.pfn == pfn]

    def stats(self) -> dict[str, int]:
        """Counters for reporting: activations, row hits, flips, refreshes."""
        return {
            "activations": self.total_activations(),
            "row_hits": sum(bank.total_row_hits for bank in self._banks.values()),
            "flips": len(self.flip_log),
            "refreshes": self.refresh_count,
            "banks_touched": len(self._banks),
        }
