"""Command line of the benchmark.

    python -m bench [--seed 7] [--reps 3] [--trace]
        every workload, reps interleaved round-robin, then one traced rep
        each; prints every metric and writes bench/results/
    python -m bench --workload NAME --seed N --seconds S --trace 0|1
        one workload for S seconds; the last stdout line is the JSON result
    python -m bench compare BASE.json NEW.json
    python -m bench --selftest

Exit codes: 0 every gate passed, 1 a gate failed, 2 bad arguments or no
``repro`` sources next to the benchmark.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare

        return compare(argv[1:])
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add the traced pass (per-layer metrics)",
    )
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        from bench.selftest import run

        return run()

    from bench import harness

    problem = harness.check_checkout()
    if problem is not None:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    if args.workload is not None:
        if args.seconds is None:
            parser.error("--workload needs --seconds")
        return harness.run_for(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    return harness.run_all(args.seed, args.reps, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
