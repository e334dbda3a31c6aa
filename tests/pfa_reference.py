"""Test-only reference PFA counters: the per-position loops, kept as an oracle.

``repro.pfa.pfa.PfaState`` counts a batch with one ``bincount`` over
``value + 256 * position`` and reads every missing set off one
``counts == 0`` mask.  :class:`ReferencePfaState` is the formulation it
replaced: one ``bincount`` per ciphertext position and one
``flatnonzero`` per missing-set question.  The differential test in
``tests/test_pfa.py`` checks the two agree on counts, missing sets, key
space and recovered keys.
"""

from __future__ import annotations

import numpy as np


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
