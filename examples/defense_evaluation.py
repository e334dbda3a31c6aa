#!/usr/bin/env python3
"""What stops ExplFrame?  A defense-by-defense evaluation.

Runs the same attack against machines differing in exactly one defence:

1. baseline         — vulnerable DDR3-era module, stock allocator;
2. sound DRAM       — no disturbance-prone cells (the only *complete* fix);
3. 2x refresh       — industry's first Rowhammer response (insufficient);
4. 16x refresh      — aggressive refresh (effective, costly);
5. TRR (4 entries)  — DDR4-era in-DRAM mitigation vs double-sided pairs;
6. FIFO pcp         — a hypothetical allocator change killing the steering
                      side channel rather than the fault mechanism.

Run:  python examples/defense_evaluation.py   (takes a few minutes)

CLI equivalent:  none single-flag; the pieces compose as
`python -m repro attack --campaign 8 --workers 4`
per machine variant (defence knobs live in MachineConfig, not CLI flags)
"""

from repro import (
    AttackOrchestrator,
    ExplFrameAttack,
    ExplFrameConfig,
    Machine,
    MachineConfig,
    TemplatorConfig,
)
from repro.attack.orchestrator import OrchestratorConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.dram.timing import DRAMTiming
from repro.dram.trr import TrrConfig
from repro.mm.pcp import PcpConfig
from repro.sim.units import MIB, SECOND

TEMPLATOR = TemplatorConfig(buffer_bytes=8 * MIB, batch_pairs=16)
VULNERABLE = FlipModelConfig.highly_vulnerable()
# Two templating campaigns per machine; an 8 MiB campaign costs minutes
# of simulated time, so the deadline is the CLI's hour.
BUDGET = OrchestratorConfig(deadline_ns=3600 * SECOND, campaign_budget=2)


def build(name, **overrides):
    config = MachineConfig(
        seed=7,
        geometry=DRAMGeometry.small(),
        flip_model=overrides.pop("flip_model", VULNERABLE),
        timing=overrides.pop("timing", DRAMTiming.ddr3_1600()),
        trr=overrides.pop("trr", TrrConfig.disabled()),
        pcp=overrides.pop("pcp", PcpConfig()),
    )
    assert not overrides, overrides
    return name, Machine(config)


def main() -> None:
    machines = [
        build("baseline (no defence)"),
        build("sound DRAM (no weak cells)", flip_model=FlipModelConfig.invulnerable()),
        build("2x refresh rate", timing=DRAMTiming.fast_refresh(2)),
        build("16x refresh rate", timing=DRAMTiming.fast_refresh(16)),
        build("TRR, 4-entry tracker", trr=TrrConfig.ddr4_like(tracker_entries=4, threshold=15_000)),
        build("FIFO page frame cache", pcp=PcpConfig(discipline="fifo")),
    ]
    print(f"{'defence':<28} {'flips':>6} {'steered':>8} {'faulted':>8} {'key':>5}")
    print("-" * 60)
    for name, machine in machines:
        report = AttackOrchestrator(
            ExplFrameAttack(
                machine, config=ExplFrameConfig(templator=TEMPLATOR, max_campaigns=2)
            ),
            BUDGET,
        ).run()
        ok = {(record.stage, record.outcome) for record in report.timeline}
        print(
            f"{name:<28} {report.templated_flips:>6} "
            f"{'yes' if ('steer', 'ok') in ok else 'no':>8} "
            f"{'yes' if ('rehammer', 'ok') in ok else 'no':>8} "
            f"{'YES' if report.success else 'no':>5}"
        )
    # Detection, as opposed to prevention: the watchdog sees the attack's
    # activation signature on the baseline machine.
    from repro.defense import HammerWatchdog, WatchdogConfig

    baseline = machines[0][1]
    watchdog = HammerWatchdog(WatchdogConfig(threshold_per_window=100_000))
    watchdog.scan(baseline.kernel.ledger)
    hottest = max(
        (baseline.kernel.ledger.max_per_window(pid), pid)
        for pid in baseline.kernel.tasks
    )
    print(
        f"\ndetection (baseline machine): watchdog flagged pids "
        f"{sorted(watchdog.flagged_pids())} — hottest task peaked at "
        f"{hottest[0]:,} activations in one refresh window"
    )

    print(
        "\nreading:\n"
        "  - sound DRAM and TRR remove the fault mechanism outright here;\n"
        "  - 2x refresh does nothing (a hammer burst fits in 32 ms) and even\n"
        "    16x only thins the flip population - enough weak cells remain\n"
        "    in a large templating buffer to find one usable flip;\n"
        "  - the FIFO cache defeats steering only while the cache holds\n"
        "    other frames; an attacker whose allocations have just drained\n"
        "    it (as templating does) still gets deterministic reuse, so a\n"
        "    cache-discipline change alone is NOT a reliable defence.\n"
        "  (compare benchmarks A1-A3 for the controlled versions)"
    )


if __name__ == "__main__":
    main()
