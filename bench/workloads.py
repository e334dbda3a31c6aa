"""The benchmark's workloads and their checked-in inputs.

Every workload is one ``repro attack ... --json`` invocation, run as a
closed loop: one client, ``--workers 1``, each attempt starting when the
previous one has finished.  Why each workload exists is in BENCHMARK.json
and, at length, in ``bench/README.md``.

The benchmark seed does not go to the CLI verbatim.  It picks one entry of
the workload's input list (``bench/inputs.json``): a CLI seed whose run
does a fixed amount of simulated work, with its report digest and its
simulated counters pinned.  Raw CLI seeds differ in work by up to 16x on
the scenario workloads (one to three templating campaigns, zero to three
eviction-set re-derivations), which would swamp any host-time change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

INPUTS = Path(__file__).with_name("inputs.json")

#: Simulated counters every run must reproduce exactly (pinned per input).
PINNED_COUNTERS = (
    "cpu_cache.hits",
    "cpu_cache.misses",
    "dram.activations",
    "dram.row_buffer.hits",
    "os.syscalls_total",
    "sim.clock_ns",
)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    #: Attempts one run of the CLI makes; every one must succeed.
    attempts: int

    def argv(self, cli_seed: int) -> list[str]:
        """The ``repro`` CLI argv for one run on ``cli_seed``."""
        return ["attack", "--seed", str(cli_seed), *self.args, "--json"]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("attack", ("--buffer-mib", "4"), 1),
        Workload(
            "fanout", ("--buffer-mib", "4", "--campaign", "256", "--fork-from-template"), 256
        ),
        Workload("tenants", ("--buffer-mib", "2", "--scenario", "apartment-8"), 1),
        Workload(
            "evict",
            (
                "--buffer-mib", "4", "--modality", "evictframe", "--scenario", "duet",
                "--campaign", "32", "--fork-from-template",
            ),
            32,
        ),
    )
}


def load_inputs() -> dict[str, list[dict]]:
    """``{workload: [{"seed", "digest", "counters"}, ...]}`` from inputs.json."""
    with open(INPUTS, encoding="utf-8") as handle:
        return json.load(handle)


def pick_input(inputs: dict, workload: str, seed: int) -> dict:
    """The input entry benchmark seed ``seed`` selects for ``workload``."""
    entries = inputs[workload]
    return entries[seed % len(entries)]
