"""Experiment T14 — eviction-based hammering vs clflush hammering.

The explframe pipeline flushes aggressor lines with ``clflush`` between
accesses; real attackers often lose that instruction (sandboxed JS,
restricted ISAs), which is what Rowhammer.js worked around with cache
eviction sets.  The ``evictframe`` modality (docs/ATTACKS.md) derives a
timing-verified, set-congruent eviction set per aggressor and replaces
every flush with a traversal of it.  This experiment quantifies what
that costs on the duet scenario (noisy same-CPU neighbour,
docs/SCENARIOS.md):

* yield — templated flips per simulated second under each modality for
  the same campaign shape (the traversal's extra loads stretch sim
  time, so flips/sim-second is the honest rate comparison);
* templating overhead — eviction-set derivation cost on top of the
  shared templating stage: sets derived, set lines pinned, timed probe
  reads spent verifying candidates;
* fidelity — eviction accuracy (aggressor accesses that actually went
  to DRAM) and the wasted activations the traversal itself causes;
* the digest gates — the evictframe duet campaign digest must be
  bit-identical serial vs a 2-worker pool and equal the T14 golden, the
  explframe 2-attempt digest must still equal the T10 golden, and the
  faultprobe duet digest the T13 golden (adding a modality must not
  perturb the other modalities' bytes).  The goldens live in
  ``benchmarks/goldens.json``; tests/test_goldens.py asserts the same
  three campaigns in tier-1.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

SEED = 7
ATTEMPTS = 4

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"


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


def _attack_config(modality: str):
    from repro.attack.registry import get_modality

    return get_modality(modality).config_class(templator=_fast_templator())


def _campaign(modality: str, **kwargs):
    from repro.attack.orchestrator import AttackCampaign
    from repro.workload import scenario_preset

    return AttackCampaign(
        _campaign_config(),
        ATTEMPTS,
        modality=modality,
        attack_config=_attack_config(modality),
        scenario=scenario_preset("duet"),
        **kwargs,
    )


def _family_total(metrics: dict, family: str) -> float:
    instances = metrics["families"].get(family, {}).get("instances", {})
    return sum(instances.values())


def run_modality(modality: str) -> dict:
    """One duet campaign under ``modality``: yield, cost and wall-clock."""
    start = time.perf_counter()
    result = _campaign(modality).run()
    elapsed = time.perf_counter() - start
    flips = sum(report.templated_flips for report in result.reports)
    sim_s = sum(report.budget.sim_time_ns for report in result.reports) / 1e9
    return {
        "modality": modality,
        "elapsed_s": elapsed,
        "successes": result.successes,
        "attempts": result.attempts,
        "digest": result.digest(),
        "flips": flips,
        "sim_s": sim_s,
        "flips_per_sim_s": flips / sim_s if sim_s else 0.0,
        "metrics": result.metrics,
    }


def eviction_overheads(metrics: dict) -> dict:
    """The ``attack.evict.*`` family aggregated over the campaign."""
    accesses = _family_total(metrics, "attack.evict.aggressor_accesses")
    evictions = _family_total(metrics, "attack.evict.aggressor_evictions")
    return {
        "sets_derived": int(_family_total(metrics, "attack.evict.sets_derived")),
        "set_lines": int(_family_total(metrics, "attack.evict.set_lines")),
        "probe_reads": int(_family_total(metrics, "attack.evict.probe_reads")),
        "accuracy": evictions / accesses if accesses else 0.0,
        "wasted_activations": int(
            _family_total(metrics, "attack.evict.wasted_activations")
        ),
    }


def digest_parity() -> dict:
    """Evictframe duet campaign digest: serial vs a 2-worker ship pool."""
    serial = _campaign("evictframe").run()
    pooled = _campaign("evictframe", workers=2).run()
    return {"serial": serial.digest(), "workers x2": pooled.digest()}


def explframe_t10_digest() -> str:
    """The T10-shape 2-attempt explframe campaign digest (no scenario)."""
    from repro.attack.orchestrator import AttackCampaign

    result = AttackCampaign(
        _campaign_config(),
        2,
        attack_config=_attack_config("explframe"),
    ).run()
    assert result.successes == 2
    return result.digest()


def test_t14_evictframe_vs_explframe(benchmark):
    from repro.analysis.tabulate import format_table, write_results

    evict = run_modality("evictframe")
    flush = run_modality("explframe")
    probe = run_modality("faultprobe")
    overheads = eviction_overheads(evict["metrics"])
    digests = digest_parity()
    t10_digest = explframe_t10_digest()
    goldens = {
        name: entry["digest"]
        for name, entry in json.loads(GOLDENS_PATH.read_text()).items()
        if name != "notes"
    }

    modality_rows = [
        [
            point["modality"],
            f"{point['successes']}/{point['attempts']}",
            f"{point['flips']}",
            f"{point['sim_s']:.1f} s",
            f"{point['flips_per_sim_s']:.2f}",
            f"{point['elapsed_s']:.1f} s",
        ]
        for point in (evict, flush)
    ]
    overhead_rows = [
        ["eviction sets derived", str(overheads["sets_derived"])],
        ["set lines pinned", str(overheads["set_lines"])],
        ["timed probe reads (derivation)", str(overheads["probe_reads"])],
        ["eviction accuracy", f"{overheads['accuracy']:.4f}"],
        ["wasted activations (traversal)", f"{overheads['wasted_activations']}"],
    ]
    digest_rows = [
        [mode, digest[:16], str(digest == digests["serial"])]
        for mode, digest in digests.items()
    ] + [
        [f"{label} golden", digest[:16], str(digest == goldens[name])]
        for name, label, digest in (
            ("T14", "evictframe T14 duet", digests["serial"]),
            ("T10", "explframe T10 2-attempt", t10_digest),
            ("T13", "faultprobe T13 duet", probe["digest"]),
        )
    ]
    table = "\n\n".join(
        [
            format_table(
                [
                    "modality",
                    "runs succeeded",
                    "templated flips",
                    "sim time",
                    "flips / sim s",
                    "wall-clock",
                ],
                modality_rows,
                title=(
                    f"T14: eviction-based vs flush-based hammering on the duet "
                    f"scenario ({ATTEMPTS} attempts, seed {SEED})"
                ),
            ),
            format_table(
                ["eviction overhead", "value"],
                overhead_rows,
                title="T14: evictframe templating overhead and fidelity",
            ),
            format_table(
                ["campaign digest", "digest[:16]", "gate holds"],
                digest_rows,
                title=(
                    "T14: digest gates — evictframe serial vs 2 workers, plus "
                    "the T14/T10/T13 goldens (benchmarks/goldens.json)"
                ),
            ),
        ]
    )
    write_results("t14_evictframe", table)

    # Claim 1: losing clflush does not lose the key — eviction-based
    # hammering recovers it on every duet attempt, at high fidelity.
    assert evict["successes"] == evict["attempts"]
    assert overheads["accuracy"] >= 0.95, (
        f"eviction accuracy {overheads['accuracy']:.4f} below the 95% gate"
    )
    assert overheads["sets_derived"] > 0
    assert overheads["wasted_activations"] > 0
    # Claim 2: the comparison point stands — flush-based explframe still
    # recovers keys on the same campaign shape, and the traversal's extra
    # loads make evictframe no faster than explframe per simulated second.
    assert flush["successes"] >= 1
    assert evict["flips_per_sim_s"] <= flush["flips_per_sim_s"]
    # Claim 3: evictframe campaigns keep the engine-independence contract.
    assert digests["serial"] == digests["workers x2"], (
        "pooled evictframe duet campaign digest diverged from serial"
    )
    # Claim 4: registering the modality perturbs no other modality's
    # bytes — the T14, T10 and T13 goldens hold verbatim.
    assert digests["serial"] == goldens["T14"], "evictframe T14 duet digest changed"
    assert t10_digest == goldens["T10"], "explframe T10 digest changed"
    assert probe["digest"] == goldens["T13"], "faultprobe T13 duet digest changed"

    evict_campaign = _campaign("evictframe")
    benchmark.pedantic(
        lambda: evict_campaign.attack_config.evict_slack,
        rounds=5,
        iterations=1,
    )
