"""Experiment T9 — multiprocess campaign fan-out (workers 1 vs 4).

PR 5's claim: dispatching campaign attempts across worker processes is
an *engine* choice with zero *result* consequences.  One table: the same
24-attempt campaign run two ways —

* serial / fork — workers=1, template once and fork per attempt (the T8
  winner, the baseline here);
* pool4 / ship — 4 workers, the warm snapshot pickled once and shipped
  to each worker's initializer.

Acceptance: both digests and merged metrics blocks are
**bit-identical** (always asserted), and on a host with ≥4 CPUs the ship mode is ≥2x faster in wall-clock
than the serial baseline.  The speedup assertion is gated on
``os.cpu_count()`` so single-core hosts still verify determinism.

Each mode runs in a fresh interpreter subprocess (same isolation as T8):
deepcopy-heavy fork costs are sensitive to process address layout, and
a pristine interpreter per mode removes that confound.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

SEED = 7
ATTEMPTS = 24
WORKERS = 4
MIN_SPEEDUP = 2.0

#: label -> workers
MODES = {
    "serial / fork": 1,
    "pool4 / ship": WORKERS,
}


def run_campaign(workers: int) -> dict:
    """One full campaign in the current process; plain-data outcome."""
    from repro.attack.explframe import ExplFrameConfig
    from repro.attack.orchestrator import AttackCampaign, OrchestratorConfig
    from repro.attack.templating import TemplatorConfig
    from repro.core import MachineConfig
    from repro.dram.flipmodel import FlipModelConfig
    from repro.dram.geometry import DRAMGeometry
    from repro.sim.units import MIB, SECOND

    campaign = AttackCampaign(
        MachineConfig(
            seed=SEED,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
        ),
        ATTEMPTS,
        attack_config=ExplFrameConfig(
            templator=TemplatorConfig(
                buffer_bytes=4 * MIB, batch_pairs=8
            )
        ),
        orchestrator_config=OrchestratorConfig(deadline_ns=600 * SECOND),
        workers=workers,
    )
    begin = time.perf_counter()
    result = campaign.run()
    wall = time.perf_counter() - begin
    return {
        "wall": wall,
        "digest": result.digest(),
        "successes": result.successes,
        "metrics": result.metrics,
    }


def run_campaign_subprocess(workers: int) -> dict:
    """``run_campaign`` in a pristine interpreter; parses its JSON result."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, __file__, str(workers)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_t9_parallel_campaign(benchmark):
    from repro.analysis.tabulate import format_table, write_results

    outcomes = {
        label: run_campaign_subprocess(workers) for label, workers in MODES.items()
    }

    # Bit-identical attacks across worker counts.
    digests = {label: outcome["digest"] for label, outcome in outcomes.items()}
    assert len(set(digests.values())) == 1, f"campaign digests diverged: {digests}"
    # The merged per-attempt metrics block is worker-count-independent too.
    metrics = [
        json.dumps(outcome["metrics"], sort_keys=True) for outcome in outcomes.values()
    ]
    assert len(set(metrics)) == 1, "merged campaign metrics diverged across modes"
    successes = outcomes["pool4 / ship"]["successes"]

    cpus = os.cpu_count() or 1
    base = outcomes["serial / fork"]["wall"]
    rows = []
    for label in MODES:
        wall = outcomes[label]["wall"]
        rows.append(
            [
                label,
                f"{wall:.2f}",
                f"{wall / ATTEMPTS:.2f}",
                f"{base / wall:.2f}x",
                digests[label][:16],
            ]
        )
    table = format_table(
        ["mode", "wall s", "s/attempt", "speedup", "digest[:16]"],
        rows,
        title=(
            f"T9: {ATTEMPTS}-attempt campaign on {WORKERS} workers vs serial "
            f"(seed {SEED}, {cpus} host CPUs, "
            f"{successes}/{ATTEMPTS} keys recovered)"
        ),
    )
    write_results("t9_parallel", table)

    assert successes == ATTEMPTS, f"campaign lost attempts: {successes}/{ATTEMPTS}"
    speedup = base / outcomes["pool4 / ship"]["wall"]
    if cpus >= WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"ship speedup {speedup:.2f}x below the {MIN_SPEEDUP}x bar "
            f"on a {cpus}-CPU host"
        )

    benchmark.pedantic(
        lambda: run_campaign_subprocess(WORKERS),
        rounds=1,
        iterations=1,
    )


if __name__ == "__main__":
    print(json.dumps(run_campaign(int(sys.argv[1]))))
