"""Experiment T13 — FAULT+PROBE bit recovery vs PFA key recovery.

The paper's back half reads *key* material out of faulty ciphertexts
(persistent fault analysis).  The ``faultprobe`` modality
(docs/ATTACKS.md) inverts the information flow: the same templated,
steered flip becomes a probe of the byte stored under it — the flip only
fires when the victim's data arms the cell, so a response discrepancy
after re-hammering leaks the stored bit.  This experiment quantifies the
trade on the duet scenario (a noisy same-CPU neighbour, the realistic
multi-tenant setting from docs/SCENARIOS.md):

* bit-recovery accuracy — recovered bits checked against the victim's
  ground-truth S-box, aggregated over a 4-attempt campaign (the gate:
  every targeted bit recovered, >= 95% of them correctly);
* analysis cost — oracle encryptions per recovered bit vs faulty
  ciphertexts per recovered key byte for the PFA pipeline;
* wall-clock — the same campaign shape under each modality;
* the digest gate — the faultprobe duet campaign digest must be
  bit-identical serial vs a 2-worker pool (docs/CAMPAIGNS.md holds for
  every modality).
"""

from __future__ import annotations

import time

SEED = 7
ATTEMPTS = 4


def _fast_templator():
    from repro.attack.templating import TemplatorConfig
    from repro.sim.units import MIB

    return TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)


def _campaign_config():
    from repro.core import MachineConfig
    from repro.dram.flipmodel import FlipModelConfig
    from repro.dram.geometry import DRAMGeometry

    return MachineConfig(
        seed=SEED,
        geometry=DRAMGeometry.small(),
        flip_model=FlipModelConfig.highly_vulnerable(),
    )


def _campaign(modality: str, **kwargs):
    from repro.attack.explframe import ExplFrameConfig
    from repro.attack.orchestrator import AttackCampaign
    from repro.workload import scenario_preset

    return AttackCampaign(
        _campaign_config(),
        ATTEMPTS,
        modality=modality,
        attack_config=ExplFrameConfig(templator=_fast_templator()),
        scenario=scenario_preset("duet"),
        **kwargs,
    )


def run_modality(modality: str) -> dict:
    """One duet campaign under ``modality``: outcome, cost and wall-clock."""
    start = time.perf_counter()
    result = _campaign(modality).run()
    elapsed = time.perf_counter() - start
    return {
        "modality": modality,
        "elapsed_s": elapsed,
        "successes": result.successes,
        "attempts": result.attempts,
        "digest": result.digest(),
        "reports": result.reports,
    }


def bit_accuracy(reports) -> dict:
    """Aggregate the faultprobe campaign's per-run ``extra`` payloads."""
    targeted = recovered = correct = 0
    for report in reports:
        extra = report.extra or {}
        targeted += extra.get("bits_targeted", 0)
        recovered += extra.get("bits_recovered", 0)
        correct += extra.get("bits_correct", 0)
    return {
        "targeted": targeted,
        "recovered": recovered,
        "correct": correct,
        "accuracy": correct / recovered if recovered else 0.0,
    }


def analysis_units(reports) -> int:
    """Oracle encryptions (faultprobe) or faulty ciphertexts (explframe)."""
    return sum(report.faulty_ciphertexts for report in reports)


def digest_parity() -> dict:
    """Faultprobe duet campaign digest: serial vs a 2-worker ship pool."""
    serial = _campaign("faultprobe").run()
    pooled = _campaign("faultprobe", workers=2).run()
    return {"serial": serial.digest(), "workers x2": pooled.digest()}


def test_t13_faultprobe_vs_pfa(benchmark):
    from repro.analysis.tabulate import format_table, write_results

    probe = run_modality("faultprobe")
    pfa = run_modality("explframe")
    accuracy = bit_accuracy(probe["reports"])
    digests = digest_parity()

    modality_rows = [
        [
            point["modality"],
            f"{point['successes']}/{point['attempts']}",
            (
                f"{accuracy['correct']}/{accuracy['targeted']} bits"
                if point["modality"] == "faultprobe"
                else f"{point['successes']} keys"
            ),
            f"{analysis_units(point['reports'])}",
            f"{point['elapsed_s']:.1f} s",
        ]
        for point in (probe, pfa)
    ]
    digest_rows = [
        [mode, digest[:16], str(digest == digests["serial"])]
        for mode, digest in digests.items()
    ]
    table = "\n\n".join(
        [
            format_table(
                [
                    "modality",
                    "runs succeeded",
                    "recovered",
                    "analysis units",
                    "wall-clock",
                ],
                modality_rows,
                title=(
                    f"T13: FAULT+PROBE vs PFA on the duet scenario "
                    f"({ATTEMPTS} attempts, seed {SEED}; analysis units are "
                    f"oracle encryptions for faultprobe, faulty ciphertexts "
                    f"for explframe)"
                ),
            ),
            format_table(
                ["campaign mode", "digest[:16]", "== serial"],
                digest_rows,
                title=(
                    "T13: 4-attempt faultprobe duet campaign digest parity, "
                    "serial vs 2 workers"
                ),
            ),
        ]
    )
    write_results("t13_faultprobe", table)

    # Claim 1: every targeted bit is read back, and >= 95% correctly —
    # the modality's acceptance gate.
    assert accuracy["recovered"] == accuracy["targeted"] > 0
    assert accuracy["accuracy"] >= 0.95, (
        f"bit accuracy {accuracy['accuracy']:.2%} below the 95% gate"
    )
    assert probe["successes"] == probe["attempts"]
    # Claim 2: the comparison point still stands — PFA recovers keys on
    # the same campaign shape.
    assert pfa["successes"] >= 1
    # Claim 3: modality campaigns keep the engine-independence contract —
    # the pooled digest equals the serial digest bit for bit.
    assert digests["serial"] == digests["workers x2"], (
        "pooled faultprobe duet campaign digest diverged from serial"
    )

    probe_campaign = _campaign("faultprobe")
    benchmark.pedantic(
        lambda: probe_campaign.attack_config.table_size,
        rounds=5,
        iterations=1,
    )
