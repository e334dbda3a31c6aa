"""Campaign-service smoke driver: kill -9 resume parity.

Shells out to the real CLI (``python -m repro attack --checkpoint ...``)
so the whole stack — argument parsing, service wiring, journal fsyncs,
exit codes — is exercised exactly as a user would drive it, then checks
the crash-safety contract from docs/CAMPAIGNS.md:

* ``kill-resume`` — start a checkpointed chaos campaign, SIGKILL the
  process partway through (first journal record landed, run not yet
  complete), resume it with ``--resume``, and require the resumed
  digest, successes and merged ``metrics`` block to be identical to an
  uninterrupted run of the same campaign in a fresh directory.  The
  journal's ``state`` records are what a resume re-reads for the
  metrics.

Used two ways: CI invokes it directly as a smoke step, and
``tests/test_parallel_service.py`` wraps it in pytest so the contract
is also enforced locally.  Exit 0 on parity, 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli(extra, checkpoint, *, attempts, chaos, modality="explframe"):
    command = [
        sys.executable, "-m", "repro", "attack",
        "--seed", "7", "--buffer-mib", "4",
        "--campaign", str(attempts),
        "--deadline", "600", "--checkpoint", str(checkpoint), "--json",
    ]
    if chaos != "none":
        command += ["--chaos", chaos]
    if modality != "explframe":
        command += ["--modality", modality]
    return command + list(extra)


def _environment():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _run_json(command):
    """Run one CLI invocation; its parsed --json result payload."""
    proc = subprocess.run(
        command, env=_environment(), capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _baseline(directory, *, attempts, chaos, modality):
    """Uninterrupted service run in ``directory/base``; its --json payload."""
    return _run_json(
        _cli([], directory / "base", attempts=attempts, chaos=chaos,
             modality=modality)
    )


def smoke_kill_resume(
    directory: Path, attempts: int, chaos: str, modality: str
) -> int:
    reference = _baseline(
        directory, attempts=attempts, chaos=chaos, modality=modality
    )
    print(f"uninterrupted digest: {reference['digest']}")

    kill_dir = directory / "kill"
    journal = kill_dir / "journal-0of1.jsonl"
    victim = subprocess.Popen(
        _cli([], kill_dir, attempts=attempts, chaos=chaos, modality=modality),
        env=_environment(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # SIGKILL as soon as the first journal record has landed but (in the
    # common case) before the campaign completes; if the victim wins the
    # race and finishes, resume degrades to a no-op and parity must
    # still hold.
    killed = False
    while victim.poll() is None:
        if journal.exists() and journal.stat().st_size > 0:
            victim.send_signal(signal.SIGKILL)
            victim.wait()
            killed = True
            break
        time.sleep(0.02)
    print(f"victim {'SIGKILLed mid-run' if killed else 'finished before the kill'}")

    payload = _run_json(
        _cli(["--resume"], kill_dir, attempts=attempts, chaos=chaos,
             modality=modality)
    )
    digest = payload["digest"]
    service = payload["service"]
    journaled = service["campaign.service.attempts_journaled"]
    resumed = service["campaign.service.attempts_resumed"]
    print(f"resumed digest:       {digest}")
    print(f"resume split:         {resumed} recovered + {journaled} re-run")
    for block in ("digest", "successes", "metrics"):
        if payload[block] != reference[block]:
            print(f"FAIL: resumed {block} differs from the uninterrupted run")
            return 1
    if journaled + resumed != attempts:
        print("FAIL: resume did not account for every attempt exactly once")
        return 1
    print("PASS: kill -9 resume matches an uninterrupted run (digest, successes, metrics)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("kill-resume",))
    parser.add_argument("--dir", required=True, type=Path,
                        help="scratch directory for checkpoints")
    parser.add_argument("--attempts", type=int, default=4)
    parser.add_argument("--chaos", default="steal")
    parser.add_argument("--modality", default="explframe",
                        help="attack modality to drive (docs/ATTACKS.md)")
    args = parser.parse_args(argv)
    args.dir.mkdir(parents=True, exist_ok=True)
    return smoke_kill_resume(args.dir, args.attempts, args.chaos, args.modality)


if __name__ == "__main__":
    raise SystemExit(main())
