"""Ablation A4 — ECC memory and the multi-bit bypass.

Server-grade SECDED ECC corrects any single disturbance flip per 64-bit
word, hiding it from the attacker's templating scan entirely.  Following
ECCploit (Cojocar et al., S&P 2019), corruption only becomes visible when
**two** weak cells of the same word fire — rare at realistic densities,
common on badly degraded modules.  And because a visible ECC corruption
is by construction a multi-bit (usually multi-entry) S-box fault, the
offline analysis must handle t >= 2; the second table shows the
generalised PFA recovering the key from an ECC-style double fault.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tabulate import format_table, write_results
from repro.attack.templating import Templator, TemplatorConfig
from repro.ciphers.aes import expand_key
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.batch import aes128_encrypt_batch, random_plaintexts
from repro.ciphers.faults import FaultSpec, apply_fault
from repro.core import Machine, MachineConfig
from repro.dram.ecc import EccConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.pfa.pfa import (
    PfaState,
    recover_k10_known_faults,
    refine_with_doubled_values,
    saturated_for_faults,
)
from repro.sim.units import MIB

CONFIG = TemplatorConfig(buffer_bytes=2 * MIB, batch_pairs=8)


def flip_model(density: float) -> FlipModelConfig:
    return FlipModelConfig(
        weak_cells_per_row_mean=density,
        threshold_mean=150_000,
        threshold_sd=50_000,
        threshold_min=40_000,
    )


def run_templating(density: float, ecc: EccConfig, seed: int = 4):
    machine = Machine(
        MachineConfig(
            seed=seed,
            geometry=DRAMGeometry.small(),
            flip_model=flip_model(density),
            ecc=ecc,
        )
    )
    attacker = machine.kernel.spawn("attacker", cpu=0)
    result = Templator(machine.kernel, attacker.pid, CONFIG).run()
    return result.flips_found, machine.controller.ecc_stats()


def test_a4_ecc_suppression_and_bypass(benchmark):
    rows = []
    observed = {}
    for density in (0.5, 8.0, 24.0):
        plain_flips, _ = run_templating(density, EccConfig.disabled())
        ecc_flips, stats = run_templating(density, EccConfig.secded64())
        observed[density] = (plain_flips, ecc_flips)
        rows.append(
            [
                density,
                plain_flips,
                ecc_flips,
                stats["corrected_bits"],
                stats["uncorrectable_events"],
            ]
        )
    table = format_table(
        [
            "weak cells/row",
            "flips (no ECC)",
            "visible flips (SECDED)",
            "corrected bits",
            "uncorrectable words",
        ],
        rows,
        title="A4: SECDED ECC vs templating yield (same modules)",
    )

    # At moderate density ECC hides everything; at extreme density pairs
    # of weak cells share 64-bit words and corruption escapes correction.
    assert observed[0.5][0] > 0 and observed[0.5][1] == 0
    assert observed[24.0][1] > 0
    assert observed[24.0][1] < observed[24.0][0]

    # The visible corruption is a >= 2-bit fault; the generalised PFA
    # handles the resulting double-entry S-box fault.
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    faulty = apply_fault(apply_fault(AES_SBOX, FaultSpec(0x42, 3)), FaultSpec(0x43, 1))
    v_stars = [AES_SBOX[0x42], AES_SBOX[0x43]]
    v_primes = [faulty[0x42], faulty[0x43]]
    rng = np.random.default_rng(2)
    state = PfaState()
    consumed = 0
    while not saturated_for_faults(state, 2) and consumed < 30_000:
        state.update(aes128_encrypt_batch(random_plaintexts(512, rng), key, faulty))
        consumed += 512
    state.update(aes128_encrypt_batch(random_plaintexts(6000, rng), key, faulty))
    consumed += 6000
    candidates = recover_k10_known_faults(state, v_stars)
    refined = refine_with_doubled_values(state, candidates, v_primes)
    recovered = bytes(c[0] for c in refined)
    correct = recovered == expand_key(key)[10]
    pfa_table = format_table(
        ["metric", "value"],
        [
            ["fault", "2 corrupted S-box entries (one 64-bit word)"],
            ["ciphertexts to saturation (t=2)", consumed - 6000],
            ["missing-set candidates per byte", "2 (v1* ^ v2* degeneracy)"],
            ["after doubled-value refinement", "1"],
            ["ciphertexts used total", consumed],
            ["K10 recovered correctly", "yes" if correct else "NO"],
        ],
        title="A4b: generalised PFA against an ECC-style double fault",
    )
    write_results("a4_ecc", table + "\n\n" + pfa_table)
    assert correct

    benchmark.pedantic(
        lambda: run_templating(0.5, EccConfig.secded64(), seed=6),
        rounds=2,
        iterations=1,
    )
