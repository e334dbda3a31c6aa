"""Test-only reference PFA: the per-position loops, kept as an oracle.

``repro.pfa.pfa.PfaState`` counts a batch with one ``bincount`` over
``value + 256 * position`` and reads every missing set off one
``counts == 0`` mask; its stop test counts the zeros of the whole mask
before it looks at rows, key recovery reads one ``nonzero`` of the mask,
and the key-schedule inversion is memoised.  :class:`ReferencePfaState`,
:func:`reference_recover_k10_known_fault` and
:func:`reference_invert_key_schedule_128` are the formulations those
replaced: one ``bincount`` and one ``flatnonzero`` per ciphertext
position, and the inversion recomputed and self-checked against the
uncached key expansion on every call.  The differential tests in
``tests/test_pfa.py`` check the two agree on counts, missing sets, key
space, stop tests and recovered keys.

:func:`reference_run_pfa` is ``ExplFrameAttack.run_pfa`` as a per-batch
loop on these references: each batch draws its plaintexts, counts its
encryptions, fetches the victim's tables and encrypts them
(:func:`reference_encrypt_batch`) before the next stop test.  The
encrypted-ahead blocks of ``run_pfa`` and ``CipherVictim.encrypt_batches``
must leave the machine, the victim and the plaintext stream exactly as it
does (``tests/test_pfa_ahead.py``).
"""

from __future__ import annotations

import numpy as np

from repro.attack.explframe import PFA_BATCH
from repro.ciphers.aes_tables import AES_RCON, AES_SBOX
from repro.ciphers.aes_ttable import AES_TE_TABLES, AesTTable
from repro.ciphers.batch import aes128_encrypt_batch, random_plaintexts
from repro.pfa.keyrank import KeyCandidates
from repro.sim.errors import FaultError
from tests.cipher_references import expand_key_reference


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


def reference_recover_k10_known_fault(state, v_star: int) -> list[list[int]]:
    """Candidate key bytes per position: ``missing ^ v*``, one position at a time."""
    if not 0 <= v_star <= 0xFF:
        raise FaultError(f"v_star {v_star} out of byte range")
    return [
        [missing ^ v_star for missing in state.missing_values(position)]
        for position in range(16)
    ]


def reference_invert_key_schedule_128(k10: bytes) -> bytes:
    """The AES-128 master key from ``k10``, walked back and re-expanded."""
    if len(k10) != 16:
        raise FaultError(f"round key must be 16 bytes, got {len(k10)}")
    words = [list(k10[4 * i : 4 * i + 4]) for i in range(4)]
    for round_index in range(10, 0, -1):
        previous = [None] * 4
        previous[3] = [a ^ b for a, b in zip(words[3], words[2])]
        previous[2] = [a ^ b for a, b in zip(words[2], words[1])]
        previous[1] = [a ^ b for a, b in zip(words[1], words[0])]
        temp = previous[3][1:] + previous[3][:1]
        temp = [AES_SBOX[b] for b in temp]
        temp[0] ^= AES_RCON[round_index - 1]
        previous[0] = [a ^ b for a, b in zip(words[0], temp)]
        words = previous
    master = bytes(b for word in words for b in word)
    if expand_key_reference(master)[10] != bytes(k10):
        raise FaultError("key schedule inversion failed self-check")
    return master


def reference_encrypt_batch(victim, count: int, rng: np.random.Generator) -> np.ndarray:
    """One batch: draw, count, fetch the tables, encrypt.

    The T-table victim's batch is its scalar cipher under the fetched
    tables (a faulty Te block: its scalar cipher fetching per block); the
    S-box victim's is the batch kernel under the fetched S-box.
    """
    plaintexts = random_plaintexts(count, rng)
    victim.encryptions += count
    if victim.cipher_kind == "aes_ttable":
        te = victim._read_te()
        if te == AES_TE_TABLES:
            sbox = victim.sbox.read()
            context = AesTTable(victim.key, lambda: te, lambda: sbox)
        else:
            context = victim._context
        return np.frombuffer(
            b"".join(context.encrypt_block(bytes(p)) for p in plaintexts),
            dtype=np.uint8,
        ).reshape(-1, 16)
    return aes128_encrypt_batch(plaintexts, victim.key, victim.sbox.read())


def reference_run_pfa(attack, victim, v_star: int, limit: int) -> tuple[bytes | None, int]:
    """PFA with one batch per stop test, as (key or None, ciphertexts consumed)."""
    rng = attack.machine.rng.numpy_stream("attack.plaintexts")
    state = ReferencePfaState()
    while state.total < limit:
        state.update(reference_encrypt_batch(victim, PFA_BATCH, rng))
        if state.is_unique():
            break
    if not state.is_unique():
        return None, state.total
    candidates = KeyCandidates(reference_recover_k10_known_fault(state, v_star))
    try:
        return reference_invert_key_schedule_128(candidates.unique_key()), state.total
    except FaultError:
        return None, state.total
