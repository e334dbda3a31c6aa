"""Experiment A7 — observability overhead on the A6 chaos scenario.

The always-on claim behind ``repro.obs``: live metric counters sit only
on moderate-rate boundaries (hammer calls, syscalls, refresh rollovers,
flip events) while per-access totals are collector-sourced at snapshot
time, so instrumenting the stack must not slow the simulation down.

One table: the orchestrated A6 ``steal`` scenario run three ways —
metrics disabled, metrics enabled (the default), and metrics plus a live
tracer — with wall time and simulated activation throughput per mode.
Acceptance: metrics-on costs <5% versus metrics-off, and every mode
produces the bit-identical attack outcome (instrumentation must never
perturb the simulation).
"""

from __future__ import annotations

import time

from repro.analysis.tabulate import format_table, write_results
from repro.attack.explframe import ExplFrameAttack, ExplFrameConfig
from repro.attack.orchestrator import AttackOrchestrator, OrchestratorConfig
from repro.attack.templating import TemplatorConfig
from repro.core import Machine, MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.chaos import ChaosEngine, chaos_profile
from repro.sim.units import MIB, SECOND

TEMPLATOR = TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
BUDGET = OrchestratorConfig(deadline_ns=600 * SECOND)
SEED = 7
REPEATS = 3
OVERHEAD_LIMIT_PCT = 5.0


def run_once(metrics_enabled: bool, trace: bool):
    """One orchestrated steal run; returns (wall seconds, outcome digest)."""
    machine = Machine(
        MachineConfig(
            seed=SEED,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
            metrics_enabled=metrics_enabled,
        )
    )
    if trace:
        machine.obs.tracer.enable()
    ChaosEngine(machine.kernel, chaos_profile("steal"))
    attack = ExplFrameAttack(machine, config=ExplFrameConfig(templator=TEMPLATOR))
    orchestrator = AttackOrchestrator(attack, BUDGET)
    begin = time.perf_counter()
    report = orchestrator.run()
    wall = time.perf_counter() - begin
    digest = (
        report.success,
        report.attempts,
        report.budget.hammer_rounds,
        machine.controller.total_activations(),
        machine.clock.now_ns,
    )
    return wall, digest


def measure(metrics_enabled: bool, trace: bool):
    """Best-of-REPEATS wall time (min filters host noise) plus the digest."""
    walls = []
    digest = None
    for _ in range(REPEATS):
        wall, run_digest = run_once(metrics_enabled, trace)
        walls.append(wall)
        assert digest is None or digest == run_digest, (
            "instrumentation perturbed the simulation"
        )
        digest = run_digest
    return min(walls), digest


def test_a7_observability_overhead(benchmark):
    modes = (
        ("metrics off", False, False),
        ("metrics on", True, False),
        ("metrics + trace", True, True),
    )
    walls = {}
    digests = {}
    for label, metrics_enabled, trace in modes:
        walls[label], digests[label] = measure(metrics_enabled, trace)

    # The simulation itself must be bit-identical across modes.
    assert digests["metrics off"] == digests["metrics on"] == digests["metrics + trace"]
    activations = digests["metrics off"][3]

    base = walls["metrics off"]
    rows = []
    for label, _, _ in modes:
        wall = walls[label]
        overhead = 100.0 * (wall - base) / base
        rows.append(
            [
                label,
                f"{wall:.2f}",
                f"{activations / wall / 1e6:.0f}",
                f"{overhead:+.1f}%" if label != "metrics off" else "baseline",
            ]
        )
    table = format_table(
        ["mode", "wall s (best of 3)", "Macts/s", "overhead"],
        rows,
        title=(
            f"A7: observability overhead, orchestrated steal scenario "
            f"(seed {SEED}, {activations / 1e9:.1f}G activations)"
        ),
    )
    write_results("a7_overhead", table)

    metrics_overhead = 100.0 * (walls["metrics on"] - base) / base
    assert metrics_overhead < OVERHEAD_LIMIT_PCT, (
        f"always-on metrics cost {metrics_overhead:.1f}% "
        f"(limit {OVERHEAD_LIMIT_PCT}%)"
    )

    benchmark.pedantic(
        lambda: run_once(metrics_enabled=True, trace=False),
        rounds=1,
        iterations=1,
    )
