"""Experiment T8 — campaign fan-out via machine snapshot/fork.

The claim behind the event-driven core refactor: an attack campaign's
dominant fixed cost is machine construction plus Rowhammer templating,
and both are *identical* for every attempt — so one warm post-templating
machine can be snapshotted and forked per attempt instead of rebuilt.

One table: a 20-attempt campaign run two ways —

* rebuild (the reference: a fresh one-attempt ``AttackCampaign`` per
  attempt, so every attempt builds and templates its own machine),
* fork (the campaign engine: template once, fork a warm machine per
  attempt).

Acceptance: fork is ≥3× faster than rebuild in wall-clock, and both
rows produce **bit-identical** campaign digests — the SHA-256 over
every attempt's canonical report JSON, in attempt order — proving that
snapshot/fork does not perturb the attack.

Each mode runs in a fresh interpreter subprocess (the same isolation
pyperf uses).  When ``Machine.fork`` was still a deepcopy storm its
``memo``-dict cost was pathologically sensitive to the process's
address layout — the identical campaign measured anywhere between ~12s
and ~45s in-process depending on what the harness happened to allocate
first.  The CoW fork (see bench_t10_cow.py) removed most of that
sensitivity, but the pristine-interpreter-per-mode setup stays: it
mirrors how campaigns actually run (one process per campaign).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SEED = 7
ATTEMPTS = 20
MIN_SPEEDUP = 3.0

#: label -> fork (False = warm a fresh machine per attempt)
MODES = {
    "rebuild / events": False,
    "fork / events": True,
}


def run_campaign(fork: bool) -> dict:
    """One full campaign in the current process.

    Returns ``{"wall": seconds, "digest": hex, "successes": int}``.
    """
    from repro.attack.explframe import ExplFrameConfig
    from repro.attack.orchestrator import AttackCampaign, OrchestratorConfig
    from repro.attack.templating import TemplatorConfig
    from repro.core import MachineConfig
    from repro.dram.flipmodel import FlipModelConfig
    from repro.dram.geometry import DRAMGeometry
    from repro.sim.units import MIB, SECOND

    def campaign():
        return AttackCampaign(
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
        )

    begin = time.perf_counter()
    if fork:
        result = campaign().run()
        digest, successes = result.digest(), result.successes
    else:
        # A fresh campaign per attempt warms (builds + templates) anew.
        hasher = hashlib.sha256()
        successes = 0
        for index in range(ATTEMPTS):
            for _, report, *_ in campaign().iter_attempts([index]):
                hasher.update(report.to_json().encode("utf-8") + b"\n")
                successes += report.success
        digest = hasher.hexdigest()
    wall = time.perf_counter() - begin
    return {"wall": wall, "digest": digest, "successes": successes}


def run_campaign_subprocess(fork: bool) -> dict:
    """``run_campaign`` in a pristine interpreter; parses its JSON result."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, __file__, "1" if fork else "0"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_t8_campaign_fanout(benchmark):
    from repro.analysis.tabulate import format_table, write_results

    outcomes = {label: run_campaign_subprocess(fork) for label, fork in MODES.items()}

    # Bit-identical attacks across fork-vs-rebuild.
    digests = {label: outcome["digest"] for label, outcome in outcomes.items()}
    assert len(set(digests.values())) == 1, f"campaign digests diverged: {digests}"
    successes = outcomes["fork / events"]["successes"]

    base = outcomes["rebuild / events"]["wall"]
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
            f"T8: {ATTEMPTS}-attempt campaign fan-out, snapshot/fork vs rebuild "
            f"(seed {SEED}, {successes}/{ATTEMPTS} keys recovered)"
        ),
    )
    write_results("t8_campaign", table)

    assert successes == ATTEMPTS, f"campaign lost attempts: {successes}/{ATTEMPTS}"
    speedup = base / outcomes["fork / events"]["wall"]
    assert speedup >= MIN_SPEEDUP, (
        f"fork speedup {speedup:.2f}x below the {MIN_SPEEDUP}x bar"
    )

    benchmark.pedantic(
        lambda: run_campaign_subprocess(fork=True),
        rounds=1,
        iterations=1,
    )


if __name__ == "__main__":
    print(json.dumps(run_campaign(sys.argv[1] == "1")))
