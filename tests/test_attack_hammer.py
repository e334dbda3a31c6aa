"""Hammer primitives: timing-based bank classification, flush necessity."""

import pytest

from repro.attack.hammer import Hammerer
from repro.sim.errors import ConfigError
from repro.sim.units import PAGE_SIZE


@pytest.fixture
def setup(small_machine):
    kernel = small_machine.kernel
    task = kernel.spawn("attacker", cpu=0)
    hammerer = Hammerer(kernel, task.pid, rounds=600_000)
    return small_machine, kernel, task, hammerer


def resident_pair(machine, kernel, task, hammerer, same_bank=True):
    """Map a buffer and find two resident VAs with a known bank relation."""
    va = hammerer.map_buffer(4 * 1024 * 1024)
    hammerer.fill(va, 1024, 0xFF)
    mapping = machine.mapping
    pa0 = kernel.resolve_pa(task.pid, va)
    d0 = mapping.to_dram(pa0)
    for offset in range(PAGE_SIZE, 1024 * PAGE_SIZE, PAGE_SIZE):
        pa = kernel.resolve_pa(task.pid, va + offset)
        d = mapping.to_dram(pa)
        same = d.bank_key() == d0.bank_key() and d.row != d0.row
        if same_bank and same:
            return va, va + offset
        if not same_bank and d.bank_key() != d0.bank_key():
            return va, va + offset
    raise AssertionError("no suitable pair found")


class TestTimingProbe:
    def test_same_bank_pair_detected(self, setup):
        machine, kernel, task, hammerer = setup
        va_a, va_b = resident_pair(machine, kernel, task, hammerer, same_bank=True)
        assert hammerer.is_same_bank_pair(va_a, va_b)

    def test_different_bank_pair_rejected(self, setup):
        machine, kernel, task, hammerer = setup
        va_a, va_b = resident_pair(machine, kernel, task, hammerer, same_bank=False)
        assert not hammerer.is_same_bank_pair(va_a, va_b)

    def test_probe_timing_gap(self, setup):
        machine, kernel, task, hammerer = setup
        same = resident_pair(machine, kernel, task, hammerer, same_bank=True)
        diff = resident_pair(machine, kernel, task, hammerer, same_bank=False)
        assert hammerer.probe_pair_ns(*same) > 2 * hammerer.probe_pair_ns(*diff)

    def test_threshold_between_extremes(self, setup):
        machine, _, _, hammerer = setup
        timing = machine.controller.timing
        threshold = hammerer.row_conflict_threshold_ns()
        assert 2 * timing.t_cas_ns < threshold < 2 * timing.t_rc_ns


class TestFill:
    def test_fill_makes_pages_resident(self, setup):
        _, kernel, task, hammerer = setup
        va = hammerer.map_buffer(8 * PAGE_SIZE)
        hammerer.fill(va, 8, 0xAA)
        assert task.mm.rss_pages == 8
        assert kernel.mem_read(task.pid, va, 4) == b"\xaa" * 4

    def test_pattern_validated(self, setup):
        _, _, _, hammerer = setup
        va = hammerer.map_buffer(PAGE_SIZE)
        with pytest.raises(ConfigError):
            hammerer.fill(va, 1, 256)

    def test_rounds_validated(self, setup):
        _, kernel, task, _ = setup
        with pytest.raises(ConfigError):
            Hammerer(kernel, task.pid, rounds=0)


class TestHammering:
    def test_hammer_pair_accumulates_stats(self, setup):
        machine, kernel, task, hammerer = setup
        va_a, va_b = resident_pair(machine, kernel, task, hammerer, same_bank=True)
        result = hammerer.hammer_pair(va_a, va_b, rounds=10_000)
        assert result.activations == 20_000
        assert hammerer.total_rounds >= 10_000
        assert hammerer.total_activations >= 20_000

    def test_no_flush_defeats_hammering(self, setup):
        """The clflush-free loop never reaches DRAM (negative control)."""
        machine, kernel, task, hammerer = setup
        va_a, va_b = resident_pair(machine, kernel, task, hammerer, same_bank=True)
        result = hammerer.hammer_without_flush(va_a, va_b, rounds=100_000)
        assert result.activations <= 2
        assert result.flips == []

    @pytest.mark.parametrize(
        "call",
        [
            lambda hammerer, va_a, va_b: hammerer.hammer_pair(va_a, va_b, rounds=0),
            lambda hammerer, va_a, va_b: hammerer.hammer_without_flush(va_a, va_b, rounds=0),
            lambda hammerer, va_a, va_b: hammerer.hammer_evict([va_a], [[va_b]], rounds=0),
            lambda hammerer, va_a, va_b: hammerer.hammer_group([va_a, va_b], rounds=0),
        ],
        ids=["hammer_pair", "hammer_without_flush", "hammer_evict", "hammer_group"],
    )
    def test_explicit_zero_rounds_is_rejected(self, setup, call):
        """``rounds=0`` is a request for no hammering, not for the default
        650k rounds; the kernel rejects it before touching DRAM."""
        machine, kernel, task, hammerer = setup
        va_a, va_b = resident_pair(machine, kernel, task, hammerer, same_bank=True)
        activations = machine.controller.total_activations()
        with pytest.raises(ConfigError):
            call(hammerer, va_a, va_b)
        assert machine.controller.total_activations() == activations
        assert hammerer.total_rounds == 0

