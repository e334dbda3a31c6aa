"""Vectorised AES-128 encryption for fault-analysis sweeps.

Persistent Fault Analysis consumes thousands of ciphertexts per data
point; the pure-Python block cipher would dominate every benchmark.  This
module encrypts whole batches with NumPy, with the same state layout and
the same pluggable S-box as :mod:`repro.ciphers.aes`, and the same
T-table round structure: each inner round is one gather of the shifted
state bytes into a (16, 256) table of Te words, one XOR-reduce of each
column's four words, and one XOR with the round key.  The final round
reads the S-box directly.

Both tables are derived from the S-box bytes and cached by them
(``aes.te_tables``), and the round keys are cached by the key bytes, so a
fault is a new cache key and a batch never reruns the key schedule.  The
byte-wise SubBytes/ShiftRows/MixColumns kernel this replaced is the
oracle in ``tests/cipher_references.py``; the test suite cross-checks
both against the scalar implementation block for block.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.ciphers.aes import expand_key, te_tables
from repro.ciphers.aes_tables import AES_SBOX, SHIFT_ROWS_PERM

_SHIFT = np.array(SHIFT_ROWS_PERM, dtype=np.intp)
# Flat-table offset of each state position: position r + 4c reads Te_r.
_LANE_OFFSETS = np.arange(16, dtype=np.intp) * 256


@lru_cache(maxsize=16)
def _round_tables(sbox: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The flat (16 * 256) Te-lane table and the S-box array for ``sbox``.

    Lane ``j`` is ``Te[j % 4]``, each word stored big-endian in memory, so
    XOR-reduced column words viewed as bytes are the next flat state.
    """
    te = te_tables(sbox)
    lanes = np.array([te[j % 4] for j in range(16)], dtype=">u4").view(np.uint32).ravel()
    lanes.flags.writeable = False
    return lanes, np.frombuffer(sbox, dtype=np.uint8)


@lru_cache(maxsize=16)
def _round_keys(key: bytes) -> tuple[np.ndarray, np.ndarray]:
    """AES-128 round keys for ``key`` as (11, 16) bytes and (11, 4) words.

    The words are views of the bytes in native order, matching the lane
    table's in-memory layout.  Both arrays are read-only.
    """
    rk_bytes = np.frombuffer(b"".join(expand_key(key)), dtype=np.uint8).reshape(11, 16)
    return rk_bytes, rk_bytes.view(np.uint32)


def aes128_encrypt_batch(
    plaintexts: np.ndarray | list[bytes],
    key: bytes,
    sbox: bytes = AES_SBOX,
) -> np.ndarray:
    """Encrypt many AES-128 blocks at once.

    ``plaintexts`` is an (N, 16) uint8 array or a list of 16-byte blocks;
    the result is an (N, 16) uint8 array of ciphertexts.  ``sbox`` may be a
    faulty table — the key schedule still uses the clean S-box, matching
    the persistent-fault timeline (keys expanded before the fault lands).
    """
    if isinstance(plaintexts, list):
        data = np.frombuffer(b"".join(plaintexts), dtype=np.uint8).reshape(-1, 16)
    else:
        data = np.asarray(plaintexts, dtype=np.uint8)
        if data.ndim != 2 or data.shape[1] != 16:
            raise ValueError(f"plaintexts must be (N, 16), got {data.shape}")
    if len(key) != 16:
        raise ValueError(f"this fast path is AES-128 only; key of {len(key)} bytes")
    if len(sbox) != 256:
        raise ValueError(f"S-box must be 256 bytes, got {len(sbox)}")

    lanes, sbox_np = _round_tables(bytes(sbox))
    rk_bytes, rk_words = _round_keys(bytes(key))

    state = data ^ rk_bytes[0]
    for round_index in range(1, 10):
        words = lanes.take(state[:, _SHIFT] + _LANE_OFFSETS).reshape(-1, 4, 4)
        columns = words[:, :, 0] ^ words[:, :, 1]
        columns ^= words[:, :, 2]
        columns ^= words[:, :, 3]
        columns ^= rk_words[round_index]
        state = columns.view(np.uint8).reshape(-1, 16)
    state = sbox_np.take(state[:, _SHIFT])
    state ^= rk_bytes[10]
    return state


def random_plaintexts(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random (count, 16) plaintext array."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    return rng.integers(0, 256, size=(count, 16), dtype=np.uint8)
