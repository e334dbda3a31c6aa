"""Persistent Fault Analysis of AES (Zhang et al., TCHES 2018).

Setting: one S-box entry ``j`` is persistently corrupted, ``S[j]`` reading
``v' = v* ^ delta`` instead of ``v* = S_clean[j]``.  In the last AES round
every ciphertext byte is ``C[i] = S[x] ^ K10[i]`` for a (uniform) state
byte ``x``, so:

* the value ``v* ^ K10[i]`` can **never** appear at position ``i`` — the
  faulty table's image no longer contains ``v*``;
* the value ``v' ^ K10[i]`` appears with **double** probability.

Collect N faulty ciphertexts, per position count byte values, and the key
byte falls out of the missing value: ``K10[i] = missing_i ^ v*``.  The
attacker in ExplFrame knows ``v*``: it templated the page and knows which
table byte the flip hits, so the known-fault recovery applies and no key
enumeration is needed.

Expected key-space shape: the faulty table's image holds 254 single values
and one doubled value, so after N ciphertexts the number of values never
seen at one position is ``1 + 254 * (255/256)^N + (254/256)^N`` in
expectation (:func:`expected_remaining_candidates`).  The per-byte
candidate count decays geometrically and reaches 1 at roughly
N ~ 2000-2600 — the curve published by Zhang et al. that experiment T5
reproduces.

The host work per batch is one ``bincount`` (:meth:`PfaState.update`)
and the stop test (:meth:`PfaState.is_unique`), which rules a batch out
on the zero count of the whole ``counts == 0`` mask before it looks at
rows.  Key recovery reads one ``nonzero`` of that mask, and the AES-128
schedule inversion is memoised on the round key: an attack campaign
recovers the same victim key in every attempt.  The per-position
formulations these replace are the oracles in ``tests/pfa_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.ciphers.aes import expand_key
from repro.ciphers.aes_tables import AES_RCON, AES_SBOX
from repro.sim.errors import FaultError

#: ``256 * position`` per ciphertext column: one bincount covers all 16.
_POSITION_BASE = np.arange(16, dtype=np.intp) * 256

#: ``log2(n)`` bits for ``n`` missing values, a full 8 bits for none yet.
_LOG2_BITS = [float(np.log2(n)) if n else 8.0 for n in range(257)]


@dataclass
class PfaState:
    """Incremental per-position byte-value counters over faulty ciphertexts.

    A batch is counted by one ``bincount`` over ``value + 256 * position``
    and the missing sets are read off one ``counts == 0`` mask; the
    per-position loops they replace are the oracle in
    ``tests/pfa_reference.py``.
    """

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((16, 256), dtype=np.int64)
    )
    total: int = 0

    def update(self, ciphertexts: np.ndarray | list[bytes]) -> None:
        """Absorb a batch of ciphertexts into the counters."""
        if isinstance(ciphertexts, list):
            if not ciphertexts:
                return
            data = np.frombuffer(b"".join(ciphertexts), dtype=np.uint8).reshape(-1, 16)
        else:
            data = np.asarray(ciphertexts, dtype=np.uint8)
            if data.ndim != 2 or data.shape[1] != 16:
                raise FaultError(f"ciphertexts must be (N, 16), got {data.shape}")
        flat = (data + _POSITION_BASE).ravel()
        self.counts += np.bincount(flat, minlength=16 * 256).reshape(16, 256)
        self.total += data.shape[0]

    def missing_counts(self) -> list[int]:
        """How many byte values are still unseen, per position."""
        return np.count_nonzero(self.counts == 0, axis=1).tolist()

    def missing_values(self, position: int) -> list[int]:
        """Byte values never observed at ``position`` so far."""
        return [int(v) for v in np.flatnonzero(self.counts[position] == 0)]

    def most_frequent(self, position: int) -> int:
        """The most frequent value at ``position`` (candidate v' ^ k)."""
        return int(np.argmax(self.counts[position]))

    def candidates_per_position(self) -> list[int]:
        """Number of still-possible key values per byte position."""
        return self.missing_counts()

    def log2_keyspace(self) -> float:
        """log2 of the remaining key space implied by the missing sets.

        Positions with no missing value yet contribute a full 8 bits.
        """
        total = 0.0
        for remaining in self.missing_counts():
            total += _LOG2_BITS[remaining]
        return total

    def is_unique(self) -> bool:
        """True when every position has exactly one missing value.

        Sixteen rows with one zero each hold sixteen zeros in all, so a
        total other than 16 rules uniqueness out exactly; the per-row test
        runs only on a total of 16.
        """
        missing = self.counts == 0
        if np.count_nonzero(missing) != 16:
            return False
        return bool(np.all(np.count_nonzero(missing, axis=1) == 1))


def expected_remaining_candidates(n_ciphertexts: int) -> float:
    """E[missing values per position] after ``n_ciphertexts`` samples.

    At one position the faulty last round emits 254 values with
    probability 1/256 each, the doubled value ``v' ^ k`` with probability
    2/256, and the structurally missing value ``v* ^ k`` never.  Hence

        E[unseen] = 1 + 254 * (255/256)^n + (254/256)^n
    """
    if n_ciphertexts < 0:
        raise FaultError(f"n_ciphertexts must be non-negative, got {n_ciphertexts}")
    n = n_ciphertexts
    return 1.0 + 254.0 * (255.0 / 256.0) ** n + (254.0 / 256.0) ** n


def recover_k10_known_fault(state: PfaState, v_star: int) -> list[list[int]]:
    """Candidate last-round-key bytes per position, knowing ``v*``.

    ``v*`` is the clean value of the corrupted S-box entry — known to the
    ExplFrame attacker from its flip template.  Returns, per position, the
    list of candidate key bytes ``missing ^ v*`` (singleton once enough
    ciphertexts have been absorbed).
    """
    if not 0 <= v_star <= 0xFF:
        raise FaultError(f"v_star {v_star} out of byte range")
    # One nonzero over the whole mask: row-major order lists each
    # position's missing values ascending, position by position.
    positions, values = np.nonzero(state.counts == 0)
    candidates: list[list[int]] = [[] for _ in range(16)]
    for position, key_byte in zip(positions.tolist(), (values ^ v_star).tolist()):
        candidates[position].append(key_byte)
    return candidates


def recover_k10_known_faults(
    state: PfaState, v_stars: list[int]
) -> list[list[int]]:
    """Candidate key bytes per position for ``t = len(v_stars)`` faults.

    With ``t`` corrupted S-box entries (clean values ``v_stars``), every
    position's missing set converges to ``{v ^ k for v in v_stars}``.  A
    key byte candidate must map the *whole* v* set onto the observed
    missing set.  This generalisation matters in practice for ECC memory,
    where a visible Rowhammer corruption always involves at least two
    bits (often two table entries) per 64-bit word.

    Positions whose missing set is still larger than ``t`` contribute
    every key byte consistent with *some* subset — recovery tightens as
    data accumulates, exactly like the t=1 case.
    """
    unique_v = sorted(set(v_stars))
    if not unique_v:
        raise FaultError("need at least one fault value")
    for v in unique_v:
        if not 0 <= v <= 0xFF:
            raise FaultError(f"v_star {v} out of byte range")
    candidates: list[list[int]] = []
    for position in range(16):
        missing = set(state.missing_values(position))
        survivors = [
            k
            for k in range(256)
            if {v ^ k for v in unique_v} <= missing
        ]
        candidates.append(survivors)
    return candidates


def refine_with_doubled_values(
    state: PfaState,
    candidates: list[list[int]],
    v_primes: list[int],
) -> list[list[int]]:
    """Prune key-byte candidates using the over-represented values.

    The missing-set relation alone leaves a ``v_i* XOR v_j*`` degeneracy
    when several entries are corrupted.  But each faulty value ``v'``
    appears with *double* frequency at ``v' ^ k``, and the attacker knows
    the ``v'`` values (it chose the flips).  Candidates are ranked by the
    *smallest* count among their ``{v' ^ k}`` cells — the correct key's
    worst cell is Poisson(2N/256) against Poisson(N/256) for impostors —
    and only the top-ranked candidates (ties kept) survive.  Needs enough
    ciphertexts for the factor-2 frequency gap to be resolvable (a few
    thousand).
    """
    unique_vp = sorted(set(v_primes))
    if not unique_vp:
        raise FaultError("need at least one faulty value")
    refined: list[list[int]] = []
    for position in range(16):
        pool = candidates[position]
        if not pool:
            refined.append([])
            continue
        scores = {
            k: min(int(state.counts[position][v ^ k]) for v in unique_vp)
            for k in pool
        }
        best = max(scores.values())
        refined.append([k for k in pool if scores[k] == best])
    return refined


def saturated_for_faults(state: PfaState, t: int) -> bool:
    """True when every position's missing set has shrunk to exactly ``t``."""
    if t <= 0:
        raise FaultError(f"fault count must be positive, got {t}")
    return all(remaining == t for remaining in state.missing_counts())


def invert_key_schedule_128(k10: bytes) -> bytes:
    """Recover the AES-128 master key from the round-10 key.

    The AES-128 key schedule is invertible: walking the word recurrence
    backwards from the last four words yields the original key.  The
    inversion is a pure function of ``k10``, memoised on its bytes.
    """
    if len(k10) != 16:
        raise FaultError(f"round key must be 16 bytes, got {len(k10)}")
    return _invert_key_schedule_128(bytes(k10))


@lru_cache(maxsize=64)
def _invert_key_schedule_128(k10: bytes) -> bytes:
    words = [list(k10[4 * i : 4 * i + 4]) for i in range(4)]
    for round_index in range(10, 0, -1):
        previous = [None] * 4
        # w[i-1] for the earlier round: w_prev[3] = w[3] ^ w[2], etc.
        previous[3] = [a ^ b for a, b in zip(words[3], words[2])]
        previous[2] = [a ^ b for a, b in zip(words[2], words[1])]
        previous[1] = [a ^ b for a, b in zip(words[1], words[0])]
        temp = previous[3][1:] + previous[3][:1]
        temp = [AES_SBOX[b] for b in temp]
        temp[0] ^= AES_RCON[round_index - 1]
        previous[0] = [a ^ b for a, b in zip(words[0], temp)]
        words = previous
    master = bytes(b for word in words for b in word)
    # Sanity: re-expanding must reproduce the round-10 key we started from.
    if expand_key(master)[10] != k10:
        raise FaultError("key schedule inversion failed self-check")
    return master


def ciphertexts_to_unique_key(
    encrypt_batch,
    batch: int = 256,
    limit: int = 20_000,
) -> tuple[int, PfaState]:
    """Feed batches of faulty ciphertexts until the key is unique.

    ``encrypt_batch(n)`` must return an (n, 16) uint8 array of faulty
    ciphertexts.  Returns (ciphertexts consumed, final state).  Raises
    :class:`FaultError` if ``limit`` is reached first — which, on a
    correctly faulted cipher, indicates the fault is not in the live path.
    """
    state = PfaState()
    while state.total < limit:
        state.update(encrypt_batch(batch))
        if state.is_unique():
            return state.total, state
    raise FaultError(
        f"key not unique after {limit} ciphertexts; is the fault persistent "
        f"and in the active S-box?"
    )
