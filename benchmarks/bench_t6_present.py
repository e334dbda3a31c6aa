"""Experiment T6 (extension) — PFA and ExplFrame against PRESENT-80.

Zhang et al. evaluate PFA on PRESENT as well as AES; the paper's closing
claim ("the same attack methodology can be used to target cryptographic
implementations") is cipher-agnostic.  This experiment reproduces both:

* offline PFA: PRESENT's 16-entry S-box saturates after only dozens of
  ciphertexts (vs ~2300 for AES) — the small alphabet collapses fast;
* full key: the round key pins 64 of 80 key-register bits; the remaining
  16 are brute forced against one clean pair;
* end-to-end: the unchanged ExplFrame pipeline (template -> steer ->
  re-hammer -> PFA) against a PRESENT victim, with the extra constraint
  that only low-nibble flips fault the cipher.
"""

from __future__ import annotations

import random

from conftest import stage_ok

from repro.analysis.stats import mean_and_ci
from repro.analysis.tabulate import format_table, write_results
from repro.attack.explframe import ExplFrameAttack, ExplFrameConfig
from repro.attack.orchestrator import AttackOrchestrator, OrchestratorConfig
from repro.attack.templating import TemplatorConfig
from repro.ciphers.present import PRESENT_SBOX, Present
from repro.core import Machine, MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.pfa.pfa_present import (
    ciphertexts_to_unique_k32,
    recover_k32_known_fault,
    recover_present80_key,
)
from repro.sim.units import MIB, SECOND

KEY = bytes(range(10))
FAULT_INDEX = 5
V_STAR = PRESENT_SBOX[FAULT_INDEX]


def faulty_cipher(key=KEY):
    table = bytearray(PRESENT_SBOX)
    table[FAULT_INDEX] ^= 0b0010
    return Present(key, sbox_provider=lambda: bytes(table))


def test_t6_present_pfa(benchmark):
    # Ciphertexts-to-unique distribution over trials.
    needed = []
    final_state = None
    for seed in range(8):
        rng = random.Random(seed)
        pts = [bytes(rng.randrange(256) for _ in range(8)) for _ in range(2000)]
        cipher = faulty_cipher()
        consumed, state = ciphertexts_to_unique_k32(
            cipher.encrypt_block, lambda i: pts[i]
        )
        assert recover_k32_known_fault(state, V_STAR) == Present(KEY).round_keys[31]
        needed.append(float(consumed))
        final_state = state
    mean, half = mean_and_ci(needed)

    # Full 80-bit key: 64 bits from PFA + 2^16 schedule brute force.
    clean_pt = bytes(8)
    clean_ct = Present(KEY).encrypt_block(clean_pt)
    master = recover_present80_key(final_state, V_STAR, clean_pt, clean_ct)

    table = format_table(
        ["metric", "value"],
        [
            ["trials", len(needed)],
            ["ciphertexts to unique K32 (mean)", f"{mean:.0f} ± {half:.0f}"],
            ["  min / max", f"{min(needed):.0f} / {max(needed):.0f}"],
            ["AES-128 equivalent (T5)", "~2600"],
            ["round key bits recovered by PFA", 64],
            ["schedule residue brute forced", "2^16"],
            ["master key recovered", "yes" if master == KEY else "NO"],
        ],
        title="T6: PFA against PRESENT-80 (single low-nibble S-box fault)",
    )
    assert master == KEY
    assert mean < 500  # the 16-value alphabet saturates fast

    # End-to-end ExplFrame with a PRESENT victim.
    machine = Machine(
        MachineConfig(
            seed=9,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig(
                weak_cells_per_row_mean=3.0,
                threshold_mean=150_000,
                threshold_sd=50_000,
                threshold_min=40_000,
            ),
        )
    )
    config = ExplFrameConfig(
        cipher="present",
        templator=TemplatorConfig(buffer_bytes=8 * MIB, batch_pairs=16),
        max_campaigns=4,
    )
    # Templating 8 MiB costs ~550 s of simulated time: past the default
    # orchestrator deadline, within the CLI's 3600 s.
    report = AttackOrchestrator(
        ExplFrameAttack(machine, config=config),
        OrchestratorConfig(deadline_ns=3600 * SECOND),
    ).run()
    # The fast PRESENT path recovers K32; the rest of the 80-bit key is
    # the schedule residue left for brute force.
    key_bits = 8 * len(bytes.fromhex(report.recovered_key or ""))
    e2e_table = format_table(
        ["stage", "outcome"],
        [
            ["flips templated", report.templated_flips],
            ["steering", "yes" if stage_ok(report, "steer") else "no"],
            ["nibble-table faulted", "yes" if stage_ok(report, "rehammer") else "no"],
            ["faulty ciphertexts used", report.faulty_ciphertexts],
            ["64-bit round key recovered", "yes" if report.success else "no"],
            ["residual key bits", 80 - key_bits],
        ],
        title="T6b: ExplFrame end-to-end against a PRESENT-80 victim",
    )
    write_results("t6_present", table + "\n\n" + e2e_table)
    assert report.success

    cipher = faulty_cipher()
    rng = random.Random(99)
    pts = [bytes(rng.randrange(256) for _ in range(8)) for _ in range(200)]
    benchmark.pedantic(
        lambda: ciphertexts_to_unique_k32(cipher.encrypt_block, lambda i: pts[i]),
        rounds=3,
        iterations=1,
    )
