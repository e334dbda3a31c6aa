#!/usr/bin/env python
"""Cross-check docs/OBSERVABILITY.md against the live telemetry.

Builds a small machine with every instrumented component attached (so
all metric families and span emission sites register), then verifies in
both directions:

* every metric family in the registry appears in the doc's tables;
* every metric name documented actually exists in the registry;
* every span/instant name emitted in ``src/`` appears in the doc, and
  every documented span name is emitted somewhere in ``src/``.

Run from the repo root: ``PYTHONPATH=src python -m scripts.check_telemetry_docs``.
Exits 1 on any mismatch (CI runs this as the docs check).
"""

from __future__ import annotations

import re
import sys
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "OBSERVABILITY.md"

sys.path.insert(0, str(REPO / "src"))

from repro.attack.evictframe import EvictFrameAttack, EvictFrameConfig  # noqa: E402
from repro.attack.explframe import ExplFrameAttack, ExplFrameConfig  # noqa: E402
from repro.attack.faultprobe import FaultProbeAttack  # noqa: E402
from repro.attack.orchestrator import (  # noqa: E402
    AttackOrchestrator,
    OrchestratorConfig,
)
from repro.attack.templating import TemplatorConfig  # noqa: E402
from repro.core import Machine, MachineConfig  # noqa: E402
from repro.defense.watchdog import WatchdogConfig  # noqa: E402
from repro.parallel.pool import register_pool_metrics  # noqa: E402
from repro.parallel.service import register_service_metrics  # noqa: E402
from repro.sim.chaos import ChaosEngine, chaos_profile  # noqa: E402
from repro.sim.units import MIB  # noqa: E402
from repro.workload import WorkloadEngine, scenario_preset  # noqa: E402

# Backticked dotted names in doc table rows ("| `dram.flips` | ...").
_DOC_NAME = re.compile(r"^\|\s*`([a-z_][a-z0-9_.]+)`\s*\|", re.MULTILINE)
# Emission sites: tracer.span("name"...) / .instant / .complete across
# line breaks ("name" is always the first string literal after the paren).
_EMIT = re.compile(r"tracer\.(?:span|instant|complete)\(\s*\n?\s*\"([a-z_.]+)\"")


def registered_families() -> set[str]:
    config = replace(MachineConfig.small(seed=0), watchdog=WatchdogConfig())
    machine = Machine(config)
    ChaosEngine(machine.kernel, chaos_profile("none"))
    attack = ExplFrameAttack(
        machine,
        config=ExplFrameConfig(
            templator=TemplatorConfig(buffer_bytes=2 * MIB)
        ),
    )
    AttackOrchestrator(attack, OrchestratorConfig())
    # The campaign.pool.* and campaign.service.* families live on
    # result-side registries (campaign results carry their snapshots),
    # not on any machine component — attach them here so the doc
    # cross-check covers them.
    register_pool_metrics(machine.obs.metrics)
    register_service_metrics(machine.obs.metrics)
    # The workload.tenant.* family registers when a scenario's engine
    # binds; the duet preset covers every instrument in the family.
    WorkloadEngine(machine, scenario_preset("duet")).start()
    # Drive past one scheduler tick so lazily-created per-queue families
    # (sim.events.dispatched{queue=...}) register.
    machine.run_until(machine.scheduler.TIMESLICE_NS)
    families = set(machine.obs.metrics.family_names())
    # The attack.faultprobe.* family binds only when that modality is
    # built; use a second machine so its shared attack.* instruments
    # don't double-register on the first.
    probe_machine = Machine(MachineConfig.small(seed=0))
    FaultProbeAttack(
        probe_machine,
        config=ExplFrameConfig(
            templator=TemplatorConfig(buffer_bytes=2 * MIB)
        ),
    )
    families.update(
        name
        for name in probe_machine.obs.metrics.family_names()
        if name.startswith("attack.faultprobe.")
    )
    # Same story for the attack.evict.* family (evictframe modality).
    evict_machine = Machine(MachineConfig.small(seed=0))
    EvictFrameAttack(
        evict_machine,
        config=EvictFrameConfig(
            templator=TemplatorConfig(buffer_bytes=2 * MIB)
        ),
    )
    families.update(
        name
        for name in evict_machine.obs.metrics.family_names()
        if name.startswith("attack.evict.")
    )
    return families


def emitted_span_names() -> set[str]:
    names = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        if path.parent.name == "obs":
            continue
        names.update(_EMIT.findall(path.read_text(encoding="utf-8")))
    return names


def main() -> int:
    doc_names = set(_DOC_NAME.findall(DOC.read_text(encoding="utf-8")))
    families = registered_families()
    spans = emitted_span_names()

    doc_metrics = {n for n in doc_names if "." in n and n not in spans}
    doc_spans = doc_names & spans | {
        n for n in doc_names if n not in families and n not in doc_metrics
    }

    problems = []
    # The CoW frame-store gauges are collector-backed and easy to lose in a
    # refactor of MemoryController.bind_obs; pin the family explicitly.
    cow_family = {name for name in families if name.startswith("dram.memory.cow.")}
    if len(cow_family) < 4:
        problems.append(
            "the dram.memory.cow.* family (4 gauges) is no longer registered; "
            f"found only {sorted(cow_family)}"
        )
    for missing in sorted(families - doc_names):
        problems.append(f"metric {missing!r} is registered but not documented")
    for stale in sorted(doc_metrics - families):
        problems.append(f"doc lists metric {stale!r} which is not registered")
    for missing in sorted(spans - doc_names):
        problems.append(f"span {missing!r} is emitted but not documented")
    for stale in sorted(doc_spans - spans - families):
        problems.append(f"doc lists span {stale!r} which is never emitted")

    if problems:
        print(f"{DOC.relative_to(REPO)} is out of sync with the telemetry:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"telemetry contract OK: {len(families)} metric families, "
        f"{len(spans)} span names documented"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
