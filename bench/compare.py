"""``python -m bench compare BASE.json NEW.json``: verdicts between two runs.

Both files are what ``python -m bench`` writes to ``bench/results/run.json``
(``bench/results/baseline.json`` is one).  Per workload: each end-to-end
metric's medians and spreads with a verdict, then the per-layer self-time
deltas and every deterministic count that changed.
"""

from __future__ import annotations

import json
import sys

from bench import stats
from bench.harness import load_spec


def compare_workload(name: str, base: dict, new: dict, spec: dict) -> list[str]:
    lines = [f"{name}:"]
    for metric in spec["end_to_end"]:
        key = metric["name"]
        if key not in base["end_to_end"] or key not in new["end_to_end"]:
            continue
        old, cur = base["end_to_end"][key], new["end_to_end"][key]
        verdict = stats.verdict(
            old["values"], cur["values"],
            bound=metric["bound"], unit=metric["unit"], better=metric["better"],
        )
        lines.append(
            f"  {key:<16} {old['median']:12.4f} -> {cur['median']:12.4f} {metric['unit']:<6}"
            f" spread {100 * old['spread']:5.1f}% / {100 * cur['spread']:5.1f}%"
            f"  bound {100 * metric['bound']:.0f}%  {verdict}"
        )
    old_layers, new_layers = base.get("per_layer"), new.get("per_layer")
    if old_layers and new_layers:
        deltas = sorted(
            (
                (new_layers[key] - old_layers[key], key[: -len(".self_s")])
                for key in old_layers
                if key.endswith(".self_s") and key in new_layers
            ),
            key=lambda item: -abs(item[0]),
        )
        lines.append("  self time, traced (new - base), changes of 5 ms or more:")
        lines += [f"    {key:<40} {delta:+9.3f} s" for delta, key in deltas if abs(delta) >= 0.005]
    changed = [
        f"    {key:<40} {base['counts'][key]} -> {new['counts'][key]}"
        for key in sorted(base.get("counts") or {})
        if (new.get("counts") or {}).get(key) != base["counts"][key]
    ]
    if base.get("digest") != new.get("digest"):
        changed.append(f"    digest {base.get('digest')} -> {new.get('digest')}")
    lines.append("  deterministic counts: " + ("changed" if changed else "identical"))
    return lines + changed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m bench compare BASE.json NEW.json", file=sys.stderr)
        return 2
    runs = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle)["workloads"])
    base, new = runs
    spec = load_spec()
    for name in base:
        if name in new:
            print("\n".join(compare_workload(name, base[name], new[name], spec)))
    return 0
