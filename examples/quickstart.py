#!/usr/bin/env python3
"""Quickstart: the full ExplFrame attack in ~20 lines.

Builds a simulated machine with a Rowhammer-vulnerable DRAM module, runs
the complete attack chain (template -> steer via the page frame cache ->
re-hammer -> persistent fault analysis) against an AES-128 victim under
the attack orchestrator, and prints the recovered key next to the truth.

Run:  python examples/quickstart.py   (exit status 1 if the key is not recovered)

CLI equivalent:  python -m repro attack --seed 7
(add --json for the machine-readable report, --campaign N for repeated
attempts, --scenario duet for a multi-tenant victim — docs/SCENARIOS.md)
"""

from repro import (
    AttackOrchestrator,
    ExplFrameAttack,
    ExplFrameConfig,
    Machine,
    MachineConfig,
    TemplatorConfig,
)
from repro.sim.units import MIB


def main() -> None:
    machine = Machine(MachineConfig.vulnerable(seed=7))
    attack = ExplFrameAttack(
        machine,
        config=ExplFrameConfig(
            templator=TemplatorConfig(buffer_bytes=8 * MIB, batch_pairs=8)
        ),
    )
    print("running ExplFrame (template -> steer -> re-hammer -> PFA)...")
    report = AttackOrchestrator(attack).run()

    print(f"  flips templated .......... {report.templated_flips}")
    print(f"  stage attempts ........... {report.attempts}")
    print(f"  faulty ciphertexts used .. {report.faulty_ciphertexts}")
    print(f"  attacker syscalls ........ {attack.attacker.syscall_count}")
    print(f"  true key ................. {report.true_key}")
    print(f"  recovered key ............ {report.recovered_key or '-'}")
    print(f"  KEY RECOVERED: {report.success}")
    if not report.success:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
