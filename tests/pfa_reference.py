"""Test-only reference PFA counters: the per-position loops, kept as an oracle.

``repro.pfa.pfa.PfaState`` counts a batch with one ``bincount`` over
``value + 256 * position`` and reads every missing set off one
``counts == 0`` mask.  :class:`ReferencePfaState` is the formulation it
replaced: one ``bincount`` per ciphertext position and one
``flatnonzero`` per missing-set question.  The differential test in
``tests/test_pfa.py`` checks the two agree on counts, missing sets, key
space and recovered keys.

:func:`reference_run_pfa` is ``ExplFrameAttack.run_pfa`` as a per-batch
loop: each batch draws its plaintexts, counts its encryptions, fetches
the victim's tables and runs the batch kernel
(:func:`reference_encrypt_batch`) before the next stop test.  The
encrypted-ahead blocks of ``run_pfa`` and ``CipherVictim.encrypt_batches``
must leave the machine, the victim and the plaintext stream exactly as it
does (``tests/test_pfa_ahead.py``).
"""

from __future__ import annotations

import numpy as np

from repro.attack.explframe import PFA_BATCH
from repro.ciphers.aes_ttable import AES_TE_TABLES
from repro.ciphers.batch import aes128_encrypt_batch, random_plaintexts
from repro.pfa.keyrank import KeyCandidates
from repro.pfa.pfa import PfaState, invert_key_schedule_128, recover_k10_known_fault
from repro.sim.errors import FaultError


class ReferencePfaState:
    """Per-position byte-value counters, filled one position at a time."""

    def __init__(self) -> None:
        self.counts = np.zeros((16, 256), dtype=np.int64)
        self.total = 0

    def update(self, ciphertexts) -> None:
        if isinstance(ciphertexts, list):
            if not ciphertexts:
                return
            data = np.frombuffer(b"".join(ciphertexts), dtype=np.uint8).reshape(-1, 16)
        else:
            data = np.asarray(ciphertexts, dtype=np.uint8)
        for position in range(16):
            self.counts[position] += np.bincount(data[:, position], minlength=256)
        self.total += data.shape[0]

    def missing_values(self, position: int) -> list[int]:
        return [int(v) for v in np.flatnonzero(self.counts[position] == 0)]

    def candidates_per_position(self) -> list[int]:
        return [len(self.missing_values(position)) for position in range(16)]

    def log2_keyspace(self) -> float:
        total = 0.0
        for position in range(16):
            remaining = len(self.missing_values(position))
            total += float(np.log2(remaining)) if remaining else 8.0
        return total

    def is_unique(self) -> bool:
        return all(len(self.missing_values(p)) == 1 for p in range(16))


def reference_encrypt_batch(victim, count: int, rng: np.random.Generator) -> np.ndarray:
    """One batch: draw, count, fetch the tables, encrypt (Te fault: scalar)."""
    plaintexts = random_plaintexts(count, rng)
    victim.encryptions += count
    if victim.cipher_kind == "aes_ttable" and victim._read_te() != AES_TE_TABLES:
        return np.frombuffer(
            b"".join(victim._context.encrypt_block(bytes(p)) for p in plaintexts),
            dtype=np.uint8,
        ).reshape(-1, 16)
    return aes128_encrypt_batch(plaintexts, victim.key, victim.sbox.read())


def reference_run_pfa(attack, victim, v_star: int, limit: int) -> tuple[bytes | None, int]:
    """PFA with one batch per stop test, as (key or None, ciphertexts consumed)."""
    rng = attack.machine.rng.numpy_stream("attack.plaintexts")
    state = PfaState()
    while state.total < limit:
        state.update(reference_encrypt_batch(victim, PFA_BATCH, rng))
        if state.is_unique():
            break
    if not state.is_unique():
        return None, state.total
    candidates = KeyCandidates(recover_k10_known_fault(state, v_star))
    try:
        return invert_key_schedule_128(candidates.unique_key()), state.total
    except FaultError:
        return None, state.total
