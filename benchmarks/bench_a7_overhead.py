"""Experiment A7 — observability overhead on the A6 chaos scenario.

The always-on claim behind ``repro.obs``: live metric counters sit only
on moderate-rate boundaries (hammer calls, syscalls, refresh rollovers,
flip events) while per-access totals are collector-sourced at snapshot
time, so instrumenting the stack must not slow the simulation down.

One table: the orchestrated A6 ``steal`` scenario run three ways —
metrics disabled, metrics enabled (the default), and metrics plus a live
tracer — with wall time and simulated activation throughput per mode.
One run takes well under a second, so single timings swing by more than
the bar: each sample times ``RUNS_PER_SAMPLE`` runs back to back, after
a full collection, and the modes are sampled in interleaved rounds
(the order rotates each round) so host drift falls on every mode alike.
Acceptance: the median over rounds of the metrics-on/metrics-off sample
ratio is below 1.05 (<5% overhead; the table records the rounds' spread),
and every mode produces the bit-identical attack outcome
(instrumentation must never perturb the simulation).
"""

from __future__ import annotations

import gc
import statistics
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
ROUNDS = 7
RUNS_PER_SAMPLE = 3
OVERHEAD_LIMIT_PCT = 5.0
MODES = (
    ("metrics off", False, False),
    ("metrics on", True, False),
    ("metrics + trace", True, True),
)


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


def sample(metrics_enabled: bool, trace: bool):
    """Wall seconds of RUNS_PER_SAMPLE back-to-back runs, plus their digest."""
    gc.collect()
    wall = 0.0
    digest = None
    for _ in range(RUNS_PER_SAMPLE):
        run_wall, run_digest = run_once(metrics_enabled, trace)
        wall += run_wall
        assert digest is None or digest == run_digest, (
            "the simulation is not deterministic across runs"
        )
        digest = run_digest
    return wall, digest


def measure():
    """Per-mode sample walls over ROUNDS interleaved rounds, plus digests."""
    run_once(True, False)  # warm process-wide caches before any timing
    walls = {label: [] for label, _, _ in MODES}
    digests = {}
    for round_index in range(ROUNDS):
        shift = round_index % len(MODES)
        for label, metrics_enabled, trace in MODES[shift:] + MODES[:shift]:
            wall, digest = sample(metrics_enabled, trace)
            assert digests.setdefault(label, digest) == digest, (
                "the simulation is not deterministic across rounds"
            )
            walls[label].append(wall)
    return walls, digests


def test_a7_observability_overhead(benchmark):
    walls, digests = measure()

    # The simulation itself must be bit-identical across modes.
    assert digests["metrics off"] == digests["metrics on"] == digests["metrics + trace"]
    activations = digests["metrics off"][3]

    base = walls["metrics off"]
    rows = []
    for label, _, _ in MODES:
        run_wall = statistics.median(walls[label]) / RUNS_PER_SAMPLE
        if label == "metrics off":
            overhead = spread = "baseline"
        else:
            ratios = sorted(wall / off for wall, off in zip(walls[label], base))
            overhead = f"{100.0 * (statistics.median(ratios) - 1):+.1f}%"
            spread = f"{100.0 * (ratios[0] - 1):+.1f}% .. {100.0 * (ratios[-1] - 1):+.1f}%"
        rows.append(
            [label, f"{run_wall:.3f}", f"{activations / run_wall / 1e6:.0f}", overhead, spread]
        )
    table = format_table(
        ["mode", "wall s per run (median)", "Macts/s", "overhead (median)", "spread"],
        rows,
        title=(
            f"A7: observability overhead, orchestrated steal scenario "
            f"(seed {SEED}, {activations / 1e9:.1f}G activations, {ROUNDS} rounds "
            f"of {RUNS_PER_SAMPLE} runs per mode)"
        ),
    )
    write_results("a7_overhead", table)

    ratios = [on / off for on, off in zip(walls["metrics on"], base)]
    metrics_overhead = 100.0 * (statistics.median(ratios) - 1)
    assert metrics_overhead < OVERHEAD_LIMIT_PCT, (
        f"always-on metrics cost {metrics_overhead:.1f}% in the median round "
        f"(limit {OVERHEAD_LIMIT_PCT}%)"
    )

    benchmark.pedantic(
        lambda: run_once(metrics_enabled=True, trace=False),
        rounds=1,
        iterations=1,
    )
