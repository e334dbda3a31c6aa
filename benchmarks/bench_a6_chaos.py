"""Experiment A6 — attack survival under injected chaos.

The robustness claim behind the orchestrator: adversity that reliably
kills a run with no room to recover (a chaos profile that steals the
staged frame out of the per-CPU page cache) is survivable with retry
machinery, within an explicit budget, and with every failure attributed
to a typed cause.

Three tables:

* **A6**  — 20 seeds under the ``steal`` profile: the orchestrator with
  no recovery (one templating campaign, one try per stage) versus its
  retrying budget.  Acceptance: chaos defeats >=50% of no-recovery runs,
  the retrying orchestrator recovers the AES master key in >=90% of
  seeds, and every failed retrying run names a specific failure class.
* **A6b** — recovery rate and attempts-to-success as the ``steal``
  intensity rises (more competitor churn per staging).
* **A6c** — survival across the named chaos profiles.
"""

from __future__ import annotations

from conftest import small_vulnerable

from repro.analysis.survival import survival_summary, survival_table
from repro.analysis.tabulate import format_table, write_results
from repro.attack.explframe import ExplFrameAttack, ExplFrameConfig
from repro.attack.orchestrator import AttackOrchestrator, OrchestratorConfig, RetryPolicy
from repro.attack.templating import TemplatorConfig
from repro.sim.chaos import ChaosEngine, chaos_profile
from repro.sim.units import MIB, SECOND

TEMPLATOR = TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
SEEDS = tuple(range(1, 21))
BUDGET = OrchestratorConfig(deadline_ns=600 * SECOND)
# The no-recovery contrast: one templating campaign, one try per stage.
NO_RECOVERY = OrchestratorConfig(
    campaign_budget=1, steer=RetryPolicy(1), rehammer=RetryPolicy(1), pfa=RetryPolicy(1)
)


def build_attack(seed: int, profile: str, intensity: float = 1.0) -> ExplFrameAttack:
    machine = small_vulnerable(seed)
    plan = chaos_profile(profile, intensity)
    if not plan.is_null:
        ChaosEngine(machine.kernel, plan)
    return ExplFrameAttack(machine, config=ExplFrameConfig(templator=TEMPLATOR))


def orchestrated(seed: int, profile: str, intensity: float = 1.0, config=BUDGET):
    return AttackOrchestrator(build_attack(seed, profile, intensity), config).run()


def test_a6_chaos_recovery(benchmark):
    # -- A6: no recovery vs retrying orchestrator under the steal profile -------
    rows = []
    single_wins = 0
    reports = []
    for seed in SEEDS:
        single = orchestrated(seed, "steal", config=NO_RECOVERY)
        single_wins += single.success
        report = orchestrated(seed, "steal")
        reports.append(report)
        rows.append(
            [
                seed,
                "yes" if single.success else "no",
                "yes" if report.success else "no",
                report.attempts,
                report.candidates_tried,
                len(report.recoveries),
                ", ".join(report.failure_classes) or "-",
            ]
        )
    main_table = format_table(
        [
            "seed",
            "single shot",
            "orchestrated",
            "stage attempts",
            "candidates",
            "recoveries",
            "failure classes seen",
        ],
        rows,
        title="A6: steal chaos, single shot vs orchestrator (20 seeds)",
    )

    defeated = len(SEEDS) - single_wins
    recovered = sum(1 for report in reports if report.success)

    # -- A6b: recovery vs steal intensity ---------------------------------------
    intensity_rows = []
    sweep_seeds = SEEDS[:3]
    for intensity in (1.0, 2.0, 4.0):
        batch = [orchestrated(seed, "steal", intensity) for seed in sweep_seeds]
        summary = survival_summary(f"steal x{intensity:g}", batch)
        attempts = summary["mean_attempts"]
        intensity_rows.append(
            [
                f"{intensity:g}",
                f"{summary['recovered']}/{summary['runs']}",
                "-" if attempts is None else f"{attempts:.1f}",
                summary["total_recoveries"],
            ]
        )
    intensity_table = format_table(
        ["steal intensity", "recovered", "mean attempts to success", "recoveries"],
        intensity_rows,
        title="A6b: recovery vs chaos intensity (3 seeds)",
    )

    # -- A6c: survival across the named profiles --------------------------------
    batches = {
        profile: [orchestrated(seed, profile) for seed in sweep_seeds]
        for profile in ("none", "steal", "drift", "migrate", "trr", "storm")
    }
    profile_table = survival_table(batches, title="A6c: survival by chaos profile (3 seeds)")

    write_results(
        "a6_chaos",
        main_table + "\n\n" + intensity_table + "\n\n" + profile_table,
    )

    # Acceptance: the profile genuinely bites, the orchestrator genuinely
    # recovers, and no failure goes unexplained.
    assert defeated >= len(SEEDS) // 2, f"steal only defeated {defeated}/{len(SEEDS)}"
    assert recovered >= round(0.9 * len(SEEDS)), f"recovered only {recovered}/{len(SEEDS)}"
    for report in reports:
        if not report.success:
            assert report.final_failure is not None
    for batch in batches.values():
        for report in batch:
            if not report.success:
                assert report.final_failure is not None

    benchmark.pedantic(
        lambda: orchestrated(7, "steal"),
        rounds=1,
        iterations=1,
    )
