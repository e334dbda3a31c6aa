"""Runs reps, checks every output, and turns reps into named metrics.

Every rep is a fresh interpreter (``python -m bench.rep``), started only
after the previous one has exited: ``ru_maxrss`` is a per-process
maximum, and every rep starts from the same imports and caches.  Times
are reported in calibrated seconds (``bench/calibrate.py``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from bench import calibrate, stats
from bench.probes import LAYERS
from bench.workloads import PINNED_COUNTERS, WORKLOADS, load_inputs, pick_input

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).with_name("results")
SPEC = ROOT / "BENCHMARK.json"

#: A rep that runs longer than this is killed and counts as failed; it
#: keeps one driver run inside its 180 s limit.
REP_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def check_checkout() -> str | None:
    """Why the benchmark cannot run here, or None when the sources are present."""
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        return f"no repro sources under {ROOT / 'src'}; run from a full checkout"
    return None


def scale(rep: dict) -> float:
    """Calibrated seconds per program second of ``rep`` (bench/calibrate.py)."""
    return calibrate.NOMINAL_S / rep["ref_s"]


def run_rep(workload: str, cli_seed: int, trace_path: Path | None = None) -> dict:
    """One rep in a fresh interpreter; its JSON line, or ``{"error": ...}``."""
    cmd = [sys.executable, "-m", "bench.rep", workload, str(cli_seed)]
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_path)]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
        # Fixed string hashing removes one source of host-time variance
        # between reps; the simulation does not depend on it.
        PYTHONHASHSEED="0",
    )
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=REP_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"rep exceeded {REP_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"rep process exited {proc.returncode}"}
    return json.loads(lines[-1])


def check(rep: dict, workload: str, entry: dict) -> list[str]:
    """Every gate this rep fails, as readable lines (empty when all pass)."""
    if "error" in rep:
        return [rep["error"]]
    failures = []
    expected = WORKLOADS[workload].attempts
    if rep["code"] != 0:
        failures.append(f"exit code {rep['code']}")
    if "digest" not in rep:
        return failures + ["no JSON report on stdout"]
    if rep["attempts"] != expected or rep["successes"] != expected:
        failures.append(
            f"{rep['successes']}/{rep['attempts']} attempts succeeded, expected {expected}"
        )
    if rep["digest"] != entry["digest"]:
        failures.append(f"digest {rep['digest']} != pinned {entry['digest']}")
    for name in PINNED_COUNTERS:
        if rep["counts"][name] != entry["counters"][name]:
            failures.append(
                f"{name} = {rep['counts'][name]} != pinned {entry['counters'][name]}"
            )
    trace = rep.get("trace")
    if trace is not None:
        accounted = sum(p["self_s"] for p in trace["probes"].values()) + trace["other_s"]
        if abs(accounted - trace["wall_s"]) > 0.01 * trace["wall_s"]:
            failures.append(f"layers + other = {accounted:.3f} s of {trace['wall_s']:.3f} s wall")
    return failures


def failed_attempts(rep: dict, workload: str, failures: list[str]) -> int:
    """Failed attempts of one rep; a rep failing any other gate adds one."""
    expected = WORKLOADS[workload].attempts
    missed = expected - rep.get("successes", 0)
    return missed + (1 if failures and not missed else 0)


# -- metrics ------------------------------------------------------------------------


def _rep_metrics(rep: dict) -> dict:
    """End-to-end values of one rep, times in calibrated seconds."""
    k = scale(rep)
    wall, setup = k * rep["wall_s"], k * rep["setup_s"]
    return {
        "wall_s": wall,
        "setup_s": setup,
        # Fork and result assembly between attempts count against throughput.
        "attempts_per_s": len(rep["attempt_s"]) / (wall - setup),
        "attempt_p50_ms": 1000 * k * stats.median(rep["attempt_s"]),
        "peak_rss_mib": rep["rss_mib"],
    }


def _columns(reps: list[dict]) -> dict[str, list[float]]:
    """Each end-to-end metric's value in every rep."""
    columns: dict[str, list[float]] = {}
    for rep in reps:
        for name, value in _rep_metrics(rep).items():
            columns.setdefault(name, []).append(value)
    return columns


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Each end-to-end metric as the median over reps."""
    return {name: stats.median(values) for name, values in _columns(reps).items()}


def end_to_end_detail(reps: list[dict]) -> dict[str, dict]:
    """Median, quartiles, min and max of each end-to-end metric over reps."""
    out = {name: stats.summarize(values) for name, values in _columns(reps).items()}
    p95 = [stats.percentile(rep["attempt_s"], 95) for rep in reps]
    if None not in p95:
        out["attempt_p95_ms"] = stats.summarize(
            [1000 * scale(rep) * v for rep, v in zip(reps, p95)]
        )
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(traced: dict, untraced_wall_s: float) -> dict[str, float]:
    """Per-probe calls and self time, layer shares and deterministic counts.

    Self times are calibrated seconds, like ``untraced_wall_s``.  The trace
    measures host seconds, calibration slices included; the slices fire
    evenly in time, so they spread over the probes in proportion to each
    one's time and scaling by program wall over host wall takes them out.
    """
    trace, counts = traced["trace"], traced["counts"]
    wall = trace["wall_s"]
    k = scale(traced) * traced["wall_s"] / wall
    out: dict[str, float] = {}
    for name, probe in trace["probes"].items():
        out[f"{name}.calls"] = probe["calls"]
        out[f"{name}.self_s"] = k * probe["self_s"]
    for layer in LAYERS:
        out[f"{layer}.share"] = 100 * trace["layers"][layer] / wall
    out["other.self_s"] = k * trace["other_s"]
    out["other.share"] = 100 * trace["other_s"] / wall
    out["trace.overhead"] = k * wall / untraced_wall_s - 1
    hits, misses = counts["cpu_cache.hits"], counts["cpu_cache.misses"]
    out["dram.cache.hit_ratio"] = _ratio(hits, hits + misses)
    # Every CPU-cache miss is one controller access.
    out["dram.row_buffer_hit_ratio"] = _ratio(counts["dram.row_buffer.hits"], misses)
    out["dram.activations"] = counts["dram.activations"]
    out["os.syscalls"] = counts["os.syscalls_total"]
    out["mm.pcp_hit_ratio"] = _ratio(
        counts["mm.pcp.hits"], counts["mm.pcp.hits"] + counts["mm.pcp.misses"]
    )
    out["sim.events.dispatched"] = counts["sim.events.dispatched"]
    out["attack.steer.hit_ratio"] = _ratio(
        counts["attack.steer.successes"], counts["attack.steer.attempts"]
    )
    out["attack.stage.failures"] = counts["attack.stage.failures"]
    out["pfa.ciphertexts"] = counts["attack.pfa.ciphertexts"]
    out["workload.served"] = counts["workload.tenant.requests_served"]
    return out


def spec_metrics(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """The metrics ``specs`` name, as ``{name: {"value", "unit"}}``."""
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs}


# -- one workload for a time budget -------------------------------------------------


def run_for(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload for ``seconds``; print the one-line JSON result.

    Reps run back to back while the next one is expected to finish inside
    the budget (at least one always runs).  A traced run measures one
    untraced rep, as the overhead baseline, and then one traced rep.
    """
    spec = load_spec()
    entry = pick_input(load_inputs(), workload, seed)
    reps: list[dict] = []
    attempted = failed = 0
    all_failures: list[str] = []

    def record(rep: dict) -> None:
        nonlocal attempted, failed
        failures = check(rep, workload, entry)
        attempted += WORKLOADS[workload].attempts
        failed += failed_attempts(rep, workload, failures)
        all_failures.extend(failures)

    start = time.monotonic()
    while True:
        rep = run_rep(workload, entry["seed"])
        record(rep)
        reps.append(rep)
        elapsed = time.monotonic() - start
        if all_failures or trace or elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    metrics = {}
    if trace and not all_failures:
        traced = run_rep(workload, entry["seed"], RESULTS / f"{workload}.trace.json")
        record(traced)
        if not all_failures:
            untraced_wall_s = _rep_metrics(reps[0])["wall_s"]
            metrics = spec_metrics(per_layer(traced, untraced_wall_s), spec["per_layer"])
    elif not all_failures:
        metrics = spec_metrics(end_to_end(reps), spec["end_to_end"])
    for line in all_failures:
        print(f"bench: {workload} (cli seed {entry['seed']}): {line}", file=sys.stderr)
    result = {
        "correct": not all_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not all_failures else 1


# -- every workload, round-robin ----------------------------------------------------


def host_note() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_all(seed: int, reps: int, trace: bool) -> int:
    """Every workload ``reps`` times, interleaved, plus one traced rep each."""
    spec = load_spec()
    inputs = load_inputs()
    entries = {name: pick_input(inputs, name, seed) for name in WORKLOADS}
    untraced: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    failures: dict[str, list[str]] = {name: [] for name in WORKLOADS}
    for index in range(reps):
        for name in WORKLOADS:
            rep = run_rep(name, entries[name]["seed"])
            failures[name] += check(rep, name, entries[name])
            untraced[name].append(rep)
            print(
                f"  rep {index + 1}/{reps} {name:<8} "
                f"{rep.get('wall_s', float('nan')):8.2f} host s, "
                f"kernel {1000 * rep.get('ref_s', float('nan')):.1f} ms",
                file=sys.stderr,
            )
    results = {}
    for name in WORKLOADS:
        good = [rep for rep in untraced[name] if rep.get("attempt_s")]
        entry = entries[name]
        result = {
            "workload": name,
            "argv": WORKLOADS[name].argv(entry["seed"]),
            "bench_seed": seed,
            "reps": reps,
            "digest": entry["digest"],
            "counts": good[0]["counts"] if good else None,
            "end_to_end": end_to_end_detail(good) if good else {},
            # Uncalibrated, for reading the host's speed beside the metrics.
            "host_wall_s": [rep["wall_s"] for rep in good],
            "ref_s": [rep["ref_s"] for rep in good],
        }
        if trace and good:
            traced = run_rep(name, entry["seed"], RESULTS / f"{name}.trace.json")
            failures[name] += check(traced, name, entry)
            if "trace" in traced:
                result["per_layer"] = per_layer(
                    traced, result["end_to_end"]["wall_s"]["median"]
                )
                result["trace_file"] = f"{name}.trace.json"
        result["failures"] = failures[name]
        results[name] = result
    RESULTS.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        _write_json(RESULTS / f"{name}.json", result)
    _write_json(RESULTS / "run.json", {"host": host_note(), "workloads": results})
    print_run(results, spec)
    return 0 if not any(failures.values()) else 1


def _write_json(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def print_run(results: dict, spec: dict) -> None:
    """Every end-to-end metric by name and unit, then each traced layer split."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["attempt_p95_ms"] = "ms"
    for name, result in results.items():
        status = "ok" if not result["failures"] else "FAILED"
        print(f"{name}  ({' '.join(result['argv'])})  gates: {status}")
        for line in result["failures"]:
            print(f"    ! {line}")
        for metric, summary in result["end_to_end"].items():
            print(
                f"    {metric:<16} {summary['median']:12.4f} {units[metric]:<6}"
                f" [{summary['min']:.4f} .. {summary['max']:.4f}] n={summary['n']}"
            )
        layers = result.get("per_layer")
        if layers:
            print(f"    traced: overhead {100 * layers['trace.overhead']:+.0f}%, shares of traced wall:")
            shares = sorted(
                ((key[: -len(".share")], value) for key, value in layers.items()
                 if key.endswith(".share")),
                key=lambda item: -item[1],
            )
            print("      " + ", ".join(f"{layer} {share:.1f}%" for layer, share in shares if share >= 0.05))
