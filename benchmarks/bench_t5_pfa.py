"""Experiment T5 — persistent fault analysis (paper ref [12], Zhang et al.).

The offline stage the paper's conclusion points to.  Tables:

* key-space reduction versus number of faulty ciphertexts — measured per
  seed against the analytic expectation 16 * log2(1 + 254*(255/256)^n +
  (254/256)^n); Zhang et al.'s published curve collapses to a unique key
  at roughly 2000-2600 ciphertexts, and ours must match that shape;
* ciphertexts-to-unique-key distribution over seeds;
* the DFA baseline's requirements for contrast (paired correct/faulty
  ciphertexts under a transient fault).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.charts import ascii_chart
from repro.analysis.stats import mean_and_ci
from repro.analysis.tabulate import format_table, write_results
from repro.ciphers.aes import AES
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.batch import aes128_encrypt_batch, random_plaintexts
from repro.ciphers.faults import FaultSpec, apply_fault
from repro.pfa.dfa import pairs_needed_for_unique
from repro.pfa.pfa import (
    PfaState,
    ciphertexts_to_unique_key,
    expected_remaining_candidates,
    invert_key_schedule_128,
    recover_k10_known_fault,
)

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SPEC = FaultSpec(index=0x42, bit=3)
FAULTY = apply_fault(AES_SBOX, SPEC)
V_STAR = AES_SBOX[SPEC.index]
CHECKPOINTS = (100, 250, 500, 1000, 1500, 2000, 2500, 3000, 4000)


def test_t5_keyspace_reduction_curve(benchmark):
    rng = np.random.default_rng(0)
    state = PfaState()
    rows = []
    consumed = 0
    for checkpoint in CHECKPOINTS:
        state.update(
            aes128_encrypt_batch(
                random_plaintexts(checkpoint - consumed, rng), KEY, FAULTY
            )
        )
        consumed = checkpoint
        measured_bits = state.log2_keyspace()
        expected_bits = 16 * math.log2(expected_remaining_candidates(checkpoint))
        rows.append(
            [
                checkpoint,
                f"{measured_bits:.1f}",
                f"{expected_bits:.1f}",
                "yes" if state.is_unique() else "no",
            ]
        )
        # The measured curve should track the analytic expectation.
        assert abs(measured_bits - expected_bits) < max(4.0, 0.2 * expected_bits)

    table = format_table(
        ["ciphertexts", "measured keyspace (bits)", "expected (bits)", "unique?"],
        rows,
        title="T5: PFA key-space reduction vs faulty ciphertexts (AES-128, t=1)",
    )
    curve = ascii_chart(
        [float(c) for c in CHECKPOINTS],
        [float(row[1]) for row in rows],
        y_label="remaining key space (bits)",
        x_label="faulty ciphertexts",
    )
    table = table + "\n\n" + curve

    # Distribution of ciphertexts needed for a unique key, over seeds.
    needed = []
    for seed in range(8):
        trial_rng = np.random.default_rng(1000 + seed)
        count, final_state = ciphertexts_to_unique_key(
            lambda n: aes128_encrypt_batch(
                random_plaintexts(n, trial_rng), KEY, FAULTY
            ),
            batch=128,
        )
        needed.append(count)
        k10 = bytes(c[0] for c in recover_k10_known_fault(final_state, V_STAR))
        assert invert_key_schedule_128(k10) == KEY
    mean, half = mean_and_ci([float(n) for n in needed])
    dist_table = format_table(
        ["metric", "value"],
        [
            ["trials", len(needed)],
            ["min ciphertexts to unique key", min(needed)],
            ["mean", f"{mean:.0f} ± {half:.0f}"],
            ["max", max(needed)],
            ["Zhang et al. reported mean (t=1)", "~2273"],
        ],
        title="T5b: ciphertexts needed for unique key recovery",
    )
    # Shape check against the published figure.
    assert 1500 < mean < 3500

    # DFA baseline: needs paired/transient faults instead.
    import random

    prng = random.Random(0)
    settled = pairs_needed_for_unique(
        AES(KEY), lambda i: bytes(prng.randrange(256) for _ in range(16)), max_pairs=160
    )
    dfa_table = format_table(
        ["metric", "value"],
        [
            ["positions uniquely recovered", f"{len(settled)}/16"],
            ["max pairs needed (any position)", max(settled.values())],
            ["requires", "correct+faulty pair per plaintext, transient fault"],
            ["PFA requires", "faulty ciphertexts only, persistent fault"],
        ],
        title="T5c: classical DFA baseline requirements",
    )
    write_results("t5_pfa", table + "\n\n" + dist_table + "\n\n" + dfa_table)

    def pfa_update_throughput():
        batch_state = PfaState()
        batch_state.update(
            aes128_encrypt_batch(random_plaintexts(1000, rng), KEY, FAULTY)
        )

    benchmark.pedantic(pfa_update_throughput, rounds=10, iterations=1)
