"""The hammering watchdog: ledger accounting, detection, separation."""

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.attack.hammer import Hammerer
from repro.defense.watchdog import (
    ActivationLedger,
    HammerWatchdog,
    WatchdogConfig,
)
from repro.sim.errors import ConfigError
from repro.sim.units import MIB, PAGE_SIZE


class TestLedger:
    def test_record_and_count(self):
        ledger = ActivationLedger()
        ledger.record(0, 100, 50)
        ledger.record(0, 100, 25)
        assert ledger.count(0, 100) == 75

    def test_zero_records_ignored(self):
        ledger = ActivationLedger()
        ledger.record(0, 100, 0)
        assert ledger.epochs() == []

    def test_history_bounded(self):
        ledger = ActivationLedger(max_windows=4)
        for epoch in range(10):
            ledger.record(epoch, 1, 1)
        assert len(ledger.epochs()) <= 4
        assert 9 in ledger.epochs()

    def test_max_per_window(self):
        ledger = ActivationLedger()
        ledger.record(0, 1, 10)
        ledger.record(1, 1, 99)
        assert ledger.max_per_window(1) == 99
        assert ledger.max_per_window(2) == 0

    def test_totals(self):
        ledger = ActivationLedger()
        ledger.record(0, 1, 10)
        ledger.record(1, 1, 5)
        ledger.record(1, 2, 3)
        assert ledger.totals() == {1: 15, 2: 3}


class MinEvictingLedger(ActivationLedger):
    """The ledger evicting with ``min`` on every overflow, as the oracle."""

    def record(self, epoch: int, pid: int, activations: int) -> None:
        if activations <= 0:
            return
        window = self._counts.setdefault(epoch, {})
        window[pid] = window.get(pid, 0) + activations
        if len(self._counts) > self.max_windows:
            del self._counts[min(self._counts)]


# Non-decreasing epochs, as the kernel feeds them (a monotone clock over a
# fixed refresh window): repeats of the current window, short steps, and
# jumps past the whole retained history.
epoch_steps = st.lists(
    st.tuples(
        st.one_of(st.just(0), st.integers(1, 3), st.integers(4, 300)),
        st.integers(1, 3),
        st.integers(-1, 50),
    ),
    max_size=120,
)


class TestLedgerEviction:
    @given(steps=epoch_steps, max_windows=st.integers(1, 8), start=st.integers(0, 20))
    @settings(max_examples=150, deadline=None)
    def test_matches_min_eviction(self, steps, max_windows, start):
        ledger = ActivationLedger(max_windows=max_windows)
        oracle = MinEvictingLedger(max_windows=max_windows)
        epoch = start
        for step, pid, activations in steps:
            epoch += step
            ledger.record(epoch, pid, activations)
            oracle.record(epoch, pid, activations)
            assert list(ledger._counts.items()) == list(oracle._counts.items())
        assert ledger.epochs() == oracle.epochs()
        assert ledger.totals() == oracle.totals()


@dataclass
class RecordingLedger(ActivationLedger):
    """The kernel's ledger, also logging every record it is fed."""

    calls: list = field(default_factory=list)

    def record(self, epoch: int, pid: int, activations: int) -> None:
        self.calls.append((epoch, pid, activations))
        super().record(epoch, pid, activations)


class TestKernelFeedsAscendingEpochs:
    """The ledger evicts its first-inserted window; that is the oldest only
    because the kernel's epochs never decrease."""

    def test_hammers_across_windows_then_ordinary_accesses(self, small_machine):
        kernel = small_machine.kernel
        ledger = kernel.ledger = RecordingLedger(max_windows=3)
        attacker = kernel.spawn("attacker", cpu=0)
        worker = kernel.spawn("worker", cpu=1)
        # About five 64 ms refresh windows per burst.
        hammerer = Hammerer(kernel, attacker.pid, rounds=3_000_000)
        va = hammerer.map_buffer(1 * MIB)
        hammerer.fill(va, 256, 0xFF)
        pair = hammerer.build_bank_group(va, 1 * MIB, 2)
        for _ in range(2):
            hammerer.hammer_group(pair)
            kernel.churn(worker.pid, 64)
            kernel.sys_file_read(worker.pid, 3, 0, 64 * PAGE_SIZE)
            hammerer.fill(va, 16, 0xFF)

        epochs = [epoch for epoch, _, _ in ledger.calls]
        assert epochs == sorted(epochs)
        assert len(set(epochs)) > 2 * ledger.max_windows
        assert list(ledger._counts) == sorted(ledger._counts)
        oracle = MinEvictingLedger(max_windows=ledger.max_windows)
        for call in ledger.calls:
            oracle.record(*call)
        assert list(ledger._counts.items()) == list(oracle._counts.items())


class TestWatchdog:
    def test_alerts_above_threshold(self):
        ledger = ActivationLedger()
        ledger.record(3, 42, 150_000)
        watchdog = HammerWatchdog(WatchdogConfig(threshold_per_window=100_000))
        (alert,) = watchdog.scan(ledger)
        assert alert.pid == 42 and alert.epoch == 3

    def test_below_threshold_is_quiet(self):
        ledger = ActivationLedger()
        ledger.record(3, 42, 50_000)
        watchdog = HammerWatchdog(WatchdogConfig(threshold_per_window=100_000))
        assert watchdog.scan(ledger) == []

    def test_alerts_not_duplicated(self):
        ledger = ActivationLedger()
        ledger.record(3, 42, 150_000)
        watchdog = HammerWatchdog(WatchdogConfig(threshold_per_window=100_000))
        watchdog.scan(ledger)
        assert watchdog.scan(ledger) == []
        assert len(watchdog.alerts) == 1

    def test_config_validated(self):
        with pytest.raises(ConfigError):
            WatchdogConfig(threshold_per_window=0)


class TestSeparation:
    """The detection premise: hammering is orders of magnitude hotter."""

    def test_hammer_flagged_normal_work_not(self, small_machine):
        kernel = small_machine.kernel
        attacker = kernel.spawn("attacker", cpu=0)
        worker = kernel.spawn("worker", cpu=1)

        # Normal workload: map/touch/free plus file reads.
        kernel.churn(worker.pid, 128)
        kernel.sys_file_read(worker.pid, 3, 0, 64 * PAGE_SIZE)

        # Attacker: one real double-sided hammer burst.
        hammerer = Hammerer(kernel, attacker.pid, rounds=600_000)
        va = hammerer.map_buffer(1 * MIB)
        hammerer.fill(va, 256, 0xFF)
        pair = hammerer.build_bank_group(va, 1 * MIB, 2)
        hammerer.hammer_group(pair)

        watchdog = HammerWatchdog(WatchdogConfig(threshold_per_window=100_000))
        watchdog.scan(kernel.ledger)
        assert attacker.pid in watchdog.flagged_pids()
        assert worker.pid not in watchdog.flagged_pids()

    def test_victim_encryptions_not_flagged(self, small_machine):
        from repro.ciphers.table_memory import CipherVictim

        kernel = small_machine.kernel
        victim = CipherVictim(kernel, bytes(16), cpu=0)
        victim.allocate_table_page()
        for _ in range(64):
            victim.encrypt(bytes(16))
        watchdog = HammerWatchdog(WatchdogConfig(threshold_per_window=100_000))
        watchdog.scan(kernel.ledger)
        assert victim.pid not in watchdog.flagged_pids()
