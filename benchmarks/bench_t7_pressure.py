"""Experiment T7 (extension) — the attack under memory pressure.

The paper's protocol is described on an idle machine; real targets run
with most memory holding file pages and kswapd cycling under pressure.
This experiment fills the page cache to increasing fractions of physical
memory and re-measures (a) steering success and (b) the full end-to-end
attack, with reclaim activity reported.

Expected shape: the page frame cache discipline is orthogonal to global
memory pressure — the attacker's own mmap triggers direct/background
reclaim as needed and steering stays deterministic — so the attack
survives even a 90%-full machine.  What pressure *does* cost is reclaim
work (kswapd churn), which the table quantifies.
"""

from __future__ import annotations

from conftest import small_vulnerable

from repro.analysis.tabulate import format_table, write_results
from repro.attack.explframe import ExplFrameAttack, ExplFrameConfig
from repro.attack.orchestrator import AttackOrchestrator
from repro.attack.steering import SteeringProtocol, SteeringTrialConfig
from repro.attack.templating import TemplatorConfig
from repro.core import Machine, MachineConfig
from repro.sim.units import MIB

TEMPLATOR = TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
TRIALS = 15


def test_t7_attack_under_memory_pressure(benchmark):
    rows = []
    outcomes = {}
    for fill in (0.0, 0.5, 0.9):
        # Steering trials on a plain machine under pressure.
        machine = Machine(MachineConfig.small(seed=2))
        filled = machine.kernel.page_cache.fill_fraction(fill)
        protocol = SteeringProtocol(machine)
        rate = protocol.success_rate(TRIALS, SteeringTrialConfig())
        # End-to-end on a vulnerable machine under the same pressure.
        attack_machine = small_vulnerable(7)
        attack_machine.kernel.page_cache.fill_fraction(fill)
        report = AttackOrchestrator(
            ExplFrameAttack(attack_machine, config=ExplFrameConfig(templator=TEMPLATOR))
        ).run()
        outcomes[fill] = (rate, report.success)
        rows.append(
            [
                f"{fill:.0%}",
                filled,
                f"{rate:.0%}",
                "yes" if report.success else "no",
                attack_machine.kswapd.reclaimed_pages,
                attack_machine.kswapd.runs,
            ]
        )
    table = format_table(
        [
            "page cache fill",
            "cached pages",
            "steering success",
            "end-to-end key recovery",
            "pages reclaimed during attack",
            "kswapd runs",
        ],
        rows,
        title="T7: ExplFrame under memory pressure",
    )
    write_results("t7_pressure", table)

    for fill, (rate, recovered) in outcomes.items():
        assert rate == 1.0, f"steering degraded at fill {fill}"
        assert recovered, f"attack failed at fill {fill}"
    # Pressure must actually have exercised reclaim at the high fill.
    assert rows[-1][4] > 0

    machine = Machine(MachineConfig.small(seed=3))
    machine.kernel.page_cache.fill_fraction(0.9)
    protocol = SteeringProtocol(machine)
    benchmark.pedantic(
        lambda: protocol.run_trial(SteeringTrialConfig()), rounds=10, iterations=1
    )
