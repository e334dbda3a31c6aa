"""One repetition of one workload, in a fresh interpreter.

    python -m bench.rep WORKLOAD CLI_SEED [--trace PATH]

Runs ``repro.cli.main(argv)`` once and prints one JSON line: exit code,
program timings and the host's speed meanwhile (``bench/calibrate.py``),
peak RSS, the outputs the gates check (attempt and success counts, digest,
simulated counters) and, with ``--trace``, the per-layer split.  The
untraced pass wraps only ``AttackOrchestrator.run``, with one timestamp
pair per attempt.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import resource
import sys
import time

from bench import calibrate
from bench.workloads import WORKLOADS

#: Families summed into the deterministic counts a rep reports.
COUNT_FAMILIES = (
    "cpu_cache.hits",
    "cpu_cache.misses",
    "dram.activations",
    "dram.row_buffer.hits",
    "os.syscalls_total",
    "sim.clock_ns",
    "mm.pcp.hits",
    "mm.pcp.misses",
    "sim.events.dispatched",
    "attack.template.campaigns",
    "attack.steer.attempts",
    "attack.steer.successes",
    "attack.stage.failures",
    "attack.pfa.ciphertexts",
    "workload.tenant.requests_served",
)

#: Report blocks that describe the host or the telemetry, not the attack.
_NOT_DIGESTED = ("metrics", "workload", "host")


def flat_metrics(payload: dict) -> dict:
    """``{instance key: number}`` from a report's or a campaign's metrics block.

    A campaign merges its attempts' registries: counters arrive summed and
    gauges as one value per attempt, which are summed here.
    """
    block = payload.get("metrics") or {}
    if "families" not in block:
        return {key: value for key, value in block.items() if not isinstance(value, dict)}
    flat = {}
    for family in block["families"].values():
        for key, value in family["instances"].items():
            if isinstance(value, list):
                value = sum(v for v in value if v is not None)
            if not isinstance(value, dict):
                flat[key] = value
    return flat


def count_families(payload: dict) -> dict:
    """Each of :data:`COUNT_FAMILIES` summed over its labelled instances."""
    flat = flat_metrics(payload)
    return {
        name: sum(v for k, v in flat.items() if k == name or k.startswith(name + "{"))
        for name in COUNT_FAMILIES
    }


def report_digest(payload: dict) -> str:
    """The campaign digest, or sha256 of a single report minus host/telemetry blocks."""
    if "digest" in payload:
        return payload["digest"]
    body = {key: value for key, value in payload.items() if key not in _NOT_DIGESTED}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def measure(argv: list[str], trace_path: str | None = None) -> dict:
    """Run ``main(argv)`` once; timings, outputs and (traced) layer split."""
    from repro.attack.orchestrator import AttackOrchestrator
    from repro.cli import main

    tracer = None
    if trace_path is not None:
        from bench.probes import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    # Program seconds (calibration slices left out) for the metrics; host
    # seconds for the tracer, whose spans and self times include the slices.
    host_clock = time.perf_counter
    attempts: list[tuple[float, float]] = []
    original = AttackOrchestrator.run
    inband = calibrate.InBand()

    @functools.wraps(original)
    def timed_run(self):
        if tracer is not None:
            tracer.open_attempt(len(attempts))
        host_start, start = host_clock(), inband.clock()
        try:
            return original(self)
        finally:
            end, host_end = inband.clock(), host_clock()
            attempts.append((start, end))
            if tracer is not None:
                tracer.close_attempt(host_start, host_end)

    AttackOrchestrator.run = timed_run
    out = io.StringIO()
    with inband, contextlib.redirect_stdout(out):
        host_start, start = host_clock(), inband.clock()
        code = main(argv)
        wall_s, host_wall_s = inband.clock() - start, host_clock() - host_start

    result = {
        "code": code,
        "wall_s": wall_s,
        "setup_s": (attempts[0][0] - start) if attempts else wall_s,
        "attempt_s": [end - begin for begin, end in attempts],
        "ref_s": inband.ref_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        payload = None
    if isinstance(payload, dict):
        single = "digest" not in payload
        result.update(
            attempts=1 if single else payload["attempts"],
            successes=int(payload["success"]) if single else payload["successes"],
            digest=report_digest(payload),
            counts=count_families(payload),
        )
    if tracer is not None:
        result["trace"] = tracer.summary(host_wall_s)
        tracer.write_chrome(trace_path, origin=host_start)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.rep")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("cli_seed", type=int)
    parser.add_argument("--trace", metavar="PATH", default=None)
    args = parser.parse_args(argv)
    result = measure(WORKLOADS[args.workload].argv(args.cli_seed), args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
