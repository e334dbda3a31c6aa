"""Experiment T11 — campaign-service overhead and streaming memory.

The campaign service (PR 7) journals every attempt to a CRC-framed,
fsync'd checkpoint and streams reports instead of holding them.  Both
must be close to free, or nobody runs campaigns through it.  One table,
three runs of the same N-attempt campaign (N defaults to 1000,
``T11_ATTEMPTS`` overrides):

* pool / in-memory — ``AttackCampaign.run()`` on the worker pool, the
  PR 5 baseline: every report accumulated in the parent.
* service / checkpointed — the same pooled campaign through
  ``CampaignService``: every attempt journaled + fsync'd, reports
  released after hashing.
* service / quarter — the service again at N/4 attempts, the control
  for the memory claim.

Acceptance (asserted):

* the service digest is **bit-identical** to the in-memory pool run's;
* checkpointing overhead is ≤10% wall-clock over the in-memory run;
* the service parent's peak RSS is *near-constant* in campaign size —
  the full-size run may exceed the quarter-size run by at most 25%,
  even though it handles 4x the reports.

Each run happens in a fresh interpreter subprocess (same isolation as
T8/T9): peak-RSS is a high-water mark, so the runs must not share an
address space.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 7
ATTEMPTS = int(os.environ.get("T11_ATTEMPTS", "1000"))
WORKERS = 2
MAX_OVERHEAD = 0.10
MAX_RSS_GROWTH = 1.25


def _campaign(attempts: int):
    from repro.attack.explframe import ExplFrameConfig
    from repro.attack.orchestrator import AttackCampaign, OrchestratorConfig
    from repro.attack.templating import TemplatorConfig
    from repro.core import MachineConfig
    from repro.dram.flipmodel import FlipModelConfig
    from repro.dram.geometry import DRAMGeometry
    from repro.sim.units import MIB, SECOND

    return AttackCampaign(
        MachineConfig(
            seed=SEED,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
        ),
        attempts,
        attack_config=ExplFrameConfig(
            templator=TemplatorConfig(
                buffer_bytes=4 * MIB, batch_pairs=8
            )
        ),
        orchestrator_config=OrchestratorConfig(deadline_ns=600 * SECOND),
        workers=WORKERS,
    )


def run_mode(mode: str, attempts: int) -> dict:
    """One full run in the current process; plain-data outcome."""
    import resource

    begin = time.perf_counter()
    if mode == "pool":
        result = _campaign(attempts).run()
        journal_bytes = 0
    else:
        from repro.parallel.service import CampaignService

        with tempfile.TemporaryDirectory(prefix="t11-") as scratch:
            service = CampaignService(_campaign(attempts), scratch)
            result = service.run()
            journal_bytes = service.journal_path.stat().st_size
    wall = time.perf_counter() - begin
    return {
        "wall": wall,
        "digest": result.digest(),
        "successes": result.successes,
        "journal_bytes": journal_bytes,
        # The streaming claim is about the *parent*: workers hold one
        # warm machine each regardless of N, the parent is what would
        # accumulate N reports if streaming regressed.
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_mode_subprocess(mode: str, attempts: int) -> dict:
    """``run_mode`` in a pristine interpreter; parses its JSON result."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, __file__, mode, str(attempts)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_t11_service_overhead(benchmark):
    from repro.analysis.tabulate import format_table, write_results

    quarter = max(1, ATTEMPTS // 4)
    outcomes = {
        "pool / in-memory": run_mode_subprocess("pool", ATTEMPTS),
        "service / checkpointed": run_mode_subprocess("service", ATTEMPTS),
        "service / quarter": run_mode_subprocess("service", quarter),
    }
    sizes = {
        "pool / in-memory": ATTEMPTS,
        "service / checkpointed": ATTEMPTS,
        "service / quarter": quarter,
    }

    base = outcomes["pool / in-memory"]
    full = outcomes["service / checkpointed"]
    small = outcomes["service / quarter"]

    assert full["digest"] == base["digest"], (
        "checkpointed digest diverged from the in-memory pool run: "
        f"{full['digest']} != {base['digest']}"
    )

    overhead = full["wall"] / base["wall"] - 1.0
    rss_growth = full["maxrss_kib"] / small["maxrss_kib"]

    rows = []
    for label, outcome in outcomes.items():
        attempts = sizes[label]
        rows.append(
            [
                label,
                str(attempts),
                f"{outcome['wall']:.1f}",
                f"{outcome['wall'] / attempts * 1e3:.0f}",
                f"{outcome['maxrss_kib'] / 1024:.0f}",
                f"{outcome['journal_bytes'] / 1024:.0f}",
                outcome["digest"][:16],
            ]
        )
    table = format_table(
        ["mode", "attempts", "wall s", "ms/attempt", "parent rss MiB",
         "journal KiB", "digest[:16]"],
        rows,
        title=(
            f"T11: checkpointed service vs in-memory pool, {ATTEMPTS} attempts "
            f"on {WORKERS} workers (seed {SEED}, "
            f"overhead {overhead * 100:+.1f}%, "
            f"rss full/quarter {rss_growth:.2f}x)"
        ),
    )
    write_results("t11_service", table)

    assert overhead <= MAX_OVERHEAD, (
        f"checkpointing overhead {overhead * 100:.1f}% exceeds the "
        f"{MAX_OVERHEAD * 100:.0f}% bar"
    )
    assert rss_growth <= MAX_RSS_GROWTH, (
        f"parent peak RSS grew {rss_growth:.2f}x from {quarter} to "
        f"{ATTEMPTS} attempts; streaming is supposed to keep it near-constant"
    )

    benchmark.pedantic(
        lambda: run_mode_subprocess("service", quarter),
        rounds=1,
        iterations=1,
    )


if __name__ == "__main__":
    print(json.dumps(run_mode(sys.argv[1], int(sys.argv[2]))))
