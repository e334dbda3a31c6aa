"""Chaos subsystem: event validation, firing semantics, layer effects."""

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.chaos import (
    CHAOS_PROFILES,
    AllocationPressure,
    ChaosEngine,
    ChaosPlan,
    HammerInterference,
    PagesetDrain,
    ThresholdDrift,
    chaos_profile,
)
from repro.sim.errors import ConfigError
from repro.sim.units import MS, PAGE_SIZE


def machine(seed=0):
    return Machine(
        MachineConfig(
            seed=seed,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
        )
    )


def churn_once(kernel, pid):
    """One map-touch-unmap cycle (pumps mmap, munmap-pre and munmap)."""
    va = kernel.sys_mmap(pid, PAGE_SIZE)
    kernel.mem_write(pid, va, b"x")
    kernel.sys_munmap(pid, va, PAGE_SIZE)


class TestEventValidation:
    def test_unknown_hook_rejected(self):
        with pytest.raises(ConfigError):
            PagesetDrain(hook="write-back")

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            PagesetDrain(at_ns=-1)

    def test_zero_times_rejected(self):
        with pytest.raises(ConfigError):
            PagesetDrain(times=0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ConfigError):
            ThresholdDrift(scale=0.0)

    def test_interference_needs_suppressing_factor(self):
        with pytest.raises(ConfigError):
            HammerInterference(factor=0.5)

    def test_nonpositive_pressure_rejected(self):
        with pytest.raises(ConfigError):
            AllocationPressure(pages=0)

    def test_plan_needs_name(self):
        with pytest.raises(ConfigError):
            ChaosPlan("")


class TestProfiles:
    def test_every_named_profile_builds(self):
        for name in CHAOS_PROFILES:
            plan = chaos_profile(name)
            assert plan.name == name

    def test_none_is_null(self):
        assert chaos_profile("none").is_null
        assert not chaos_profile("steal").is_null

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            chaos_profile("earthquake")

    def test_bad_intensity_rejected(self):
        with pytest.raises(ConfigError):
            chaos_profile("steal", intensity=0)

    def test_intensity_scales_pressure(self):
        light = chaos_profile("steal", 1.0).events[0]
        heavy = chaos_profile("steal", 4.0).events[0]
        assert heavy.pages > light.pages
        assert heavy.times > light.times


class TestFiringSemantics:
    def test_fires_once_then_exhausts(self):
        m = machine()
        engine = ChaosEngine(m.kernel, ChaosPlan("p", (PagesetDrain(hook="munmap"),)))
        task = m.kernel.spawn("t", cpu=0)
        churn_once(m.kernel, task.pid)
        churn_once(m.kernel, task.pid)
        assert len(engine.records) == 1
        assert engine.pending_events() == 0

    def test_skip_defers_firing(self):
        m = machine()
        engine = ChaosEngine(
            m.kernel, ChaosPlan("p", (PagesetDrain(hook="munmap", skip=1),))
        )
        task = m.kernel.spawn("t", cpu=0)
        churn_once(m.kernel, task.pid)
        assert len(engine.records) == 0
        churn_once(m.kernel, task.pid)
        assert len(engine.records) == 1

    def test_time_gate(self):
        m = machine()
        engine = ChaosEngine(
            m.kernel,
            ChaosPlan("p", (PagesetDrain(hook="munmap", at_ns=10**15),)),
        )
        task = m.kernel.spawn("t", cpu=0)
        churn_once(m.kernel, task.pid)
        assert len(engine.records) == 0
        m.kernel.clock.advance_to(10**15)
        churn_once(m.kernel, task.pid)
        assert len(engine.records) == 1

    def test_hook_mismatch_does_not_fire(self):
        m = machine()
        engine = ChaosEngine(m.kernel, ChaosPlan("p", (PagesetDrain(hook="hammer"),)))
        task = m.kernel.spawn("t", cpu=0)
        churn_once(m.kernel, task.pid)
        assert len(engine.records) == 0

    def test_records_carry_forensics(self):
        m = machine()
        engine = ChaosEngine(m.kernel, chaos_profile("steal"))
        task = m.kernel.spawn("t", cpu=0)
        churn_once(m.kernel, task.pid)
        (record,) = engine.records_as_dicts()
        assert record["event"] == "AllocationPressure"
        assert record["hook"] == "munmap"
        assert record["pid"] == task.pid
        assert "churned" in record["detail"]


class TestLayerEffects:
    def test_threshold_drift_scales_controller(self):
        m = machine()
        ChaosEngine(
            m.kernel, ChaosPlan("p", (ThresholdDrift(hook="munmap", scale=8.0),))
        )
        task = m.kernel.spawn("t", cpu=0)
        churn_once(m.kernel, task.pid)
        assert m.kernel.controller.threshold_scale == 8.0

    def test_windowed_drift_expires(self):
        m = machine()
        ChaosEngine(
            m.kernel,
            ChaosPlan("p", (ThresholdDrift(hook="munmap", scale=8.0, duration_ns=5 * MS),)),
        )
        task = m.kernel.spawn("t", cpu=0)
        churn_once(m.kernel, task.pid)
        assert m.kernel.controller.threshold_scale == 8.0
        m.kernel.clock.advance(6 * MS)
        churn_once(m.kernel, task.pid)  # pump expires the window
        assert m.kernel.controller.threshold_scale == 1.0

    def test_migration_moves_attacker(self):
        m = machine()
        ChaosEngine(m.kernel, chaos_profile("migrate"))
        task = m.kernel.spawn("t", cpu=0)
        churn_once(m.kernel, task.pid)
        assert m.kernel.task(task.pid).cpu != 0

    def test_allocation_pressure_steals_staged_frame(self):
        m = machine()
        task = m.kernel.spawn("attacker", cpu=0)
        va = m.kernel.sys_mmap(task.pid, PAGE_SIZE)
        m.kernel.mem_write(task.pid, va, b"x")
        staged_pfn = m.kernel.pfn_of(task.pid, va)
        ChaosEngine(m.kernel, chaos_profile("steal"))
        m.kernel.sys_munmap(task.pid, va, PAGE_SIZE)  # stage + chaos fires
        victim = m.kernel.spawn("victim", cpu=0)
        victim_va = m.kernel.sys_mmap(victim.pid, PAGE_SIZE)
        m.kernel.mem_write(victim.pid, victim_va, b"v")
        assert m.kernel.pfn_of(victim.pid, victim_va) != staged_pfn

    def test_without_chaos_staged_frame_lands(self):
        m = machine()
        task = m.kernel.spawn("attacker", cpu=0)
        va = m.kernel.sys_mmap(task.pid, PAGE_SIZE)
        m.kernel.mem_write(task.pid, va, b"x")
        staged_pfn = m.kernel.pfn_of(task.pid, va)
        m.kernel.sys_munmap(task.pid, va, PAGE_SIZE)
        victim = m.kernel.spawn("victim", cpu=0)
        victim_va = m.kernel.sys_mmap(victim.pid, PAGE_SIZE)
        m.kernel.mem_write(victim.pid, victim_va, b"v")
        assert m.kernel.pfn_of(victim.pid, victim_va) == staged_pfn

    def test_determinism_same_seed_same_records(self):
        def run():
            m = machine(seed=5)
            engine = ChaosEngine(m.kernel, chaos_profile("storm", 2.0))
            task = m.kernel.spawn("t", cpu=0)
            for _ in range(6):
                churn_once(m.kernel, task.pid)
            return engine.records_as_dicts()

        assert run() == run()
