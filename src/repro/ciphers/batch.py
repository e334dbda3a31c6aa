"""Vectorised AES-128 encryption for fault-analysis sweeps.

Persistent Fault Analysis consumes thousands of ciphertexts per data
point; the pure-Python block cipher would dominate every benchmark.  This
module encrypts whole batches with NumPy, with the same state layout and
the same pluggable S-box as :mod:`repro.ciphers.aes`, and the same
T-table round structure, read two bytes at a time.

Output column ``c`` of an inner round is
``Te0[s[0,c]] ^ Te1[s[1,c+1]] ^ Te2[s[2,c+2]] ^ Te3[s[3,c+3]]`` (column
indices mod 4; ShiftRows is the column offset).  Each round does one
``take`` that applies ShiftRows and lays the state out as adjacent byte
pairs: first the (row 0, row 1) pair of every column of every block, then
every (row 2, row 3) pair.  Each pair is read as a native ``uint16`` and
indexes a 65,536-entry ``uint32`` pair table, ``T01[(a, b)] = Te0[a] ^
Te1[b]`` or ``T23[(a, b)] = Te2[a] ^ Te3[b]``, so a column is two lookups,
one XOR and the round-key XOR.  This is exact: every byte pair is
tabulated and XOR is associative, so each lookup is the two Te lookups it
replaces, already XORed.  The pair tables are laid out as the host reads
a byte pair (``a | b << 8`` little-endian, ``a << 8 | b`` big-endian), so
the result does not depend on byte order.  The final round reads the
S-box directly; the inner rounds may derive from another S-box
(``inner_sbox``), which is how the T-table victim's clean Te block meets
its faulty last-round S-box.

The pair tables are derived from the S-box bytes and cached by them, so a
fault is a new cache key.  They take 512 KiB per S-box, so the cache
holds one: a PFA stage's batches all read one faulty table, and a
rebuild for another S-box costs about 0.08 ms once ``te_tables`` has it.
The round keys are cached by the key bytes, so a batch never reruns the
key schedule, and the pair gather is cached per batch size (four sizes,
128 bytes per block each).  The byte-wise SubBytes/ShiftRows/MixColumns
kernel is the oracle in ``tests/cipher_references.py``; the test suite
cross-checks the batch kernel against it and against the scalar
implementation block for block.
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np

from repro.ciphers.aes import expand_key, te_tables
from repro.ciphers.aes_tables import AES_SBOX, SHIFT_ROWS_PERM

_SHIFT = np.array(SHIFT_ROWS_PERM, dtype=np.intp)
# Source state position of byte k of the row pair (2h, 2h + 1) of output
# column c, laid out as [h][c][k] after ShiftRows.
_PAIR_SOURCES = np.array(
    [SHIFT_ROWS_PERM[4 * c + 2 * h + k] for h in (0, 1) for c in range(4) for k in (0, 1)],
    dtype=np.intp,
).reshape(2, 1, 8)


def _pair_table(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``first[a] ^ second[b]`` at the native ``uint16`` read of bytes (a, b)."""
    high, low = (second, first) if sys.byteorder == "little" else (first, second)
    table = (high[:, None] ^ low[None, :]).ravel()
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1)
def _round_tables(sbox: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The T01 and T23 pair tables and the S-box array for ``sbox``.

    Each Te word is stored big-endian in memory, so XORed column words
    viewed as bytes are the next flat state.  All three are read-only.
    """
    te = np.array(te_tables(sbox), dtype=">u4").view(np.uint32)
    return (
        _pair_table(te[0], te[1]),
        _pair_table(te[2], te[3]),
        np.frombuffer(sbox, dtype=np.uint8),
    )


@lru_cache(maxsize=16)
def _round_keys(key: bytes) -> tuple[np.ndarray, np.ndarray]:
    """AES-128 round keys for ``key`` as (11, 16) bytes and (11, 4) words.

    The words are views of the bytes in native order, matching the pair
    tables' in-memory layout.  Both arrays are read-only.
    """
    rk_bytes = np.frombuffer(b"".join(expand_key(key)), dtype=np.uint8).reshape(11, 16)
    return rk_bytes, rk_bytes.view(np.uint32)


@lru_cache(maxsize=4)
def _pair_gather(count: int) -> np.ndarray:
    """Flat indices that shift ``count`` flat states into [half][block][pair].

    Left writeable: ``take`` copies a read-only index array on every call.
    """
    return (np.arange(count, dtype=np.intp)[:, None] * 16 + _PAIR_SOURCES).ravel()


def aes128_encrypt_batch(
    plaintexts: np.ndarray | list[bytes],
    key: bytes,
    sbox: bytes = AES_SBOX,
    *,
    inner_sbox: bytes | None = None,
) -> np.ndarray:
    """Encrypt many AES-128 blocks at once.

    ``plaintexts`` is an (N, 16) uint8 array or a list of 16-byte blocks;
    the result is an (N, 16) uint8 array of ciphertexts.  ``sbox`` may be a
    faulty table — the key schedule still uses the clean S-box, matching
    the persistent-fault timeline (keys expanded before the fault lands).
    ``sbox`` drives every round unless ``inner_sbox`` is given: the inner
    rounds' tables then derive from ``inner_sbox`` and only the final
    round reads ``sbox``, which is the T-table cipher (its Te block in
    memory, its own S-box in the last round).
    """
    if isinstance(plaintexts, list):
        data = np.frombuffer(b"".join(plaintexts), dtype=np.uint8).reshape(-1, 16)
    else:
        data = np.asarray(plaintexts, dtype=np.uint8)
        if data.ndim != 2 or data.shape[1] != 16:
            raise ValueError(f"plaintexts must be (N, 16), got {data.shape}")
    if len(key) != 16:
        raise ValueError(f"this fast path is AES-128 only; key of {len(key)} bytes")
    inner = sbox if inner_sbox is None else inner_sbox
    for table in (sbox, inner):
        if len(table) != 256:
            raise ValueError(f"S-box must be 256 bytes, got {len(table)}")

    t01, t23, sbox_np = _round_tables(bytes(inner))
    if inner_sbox is not None:
        sbox_np = np.frombuffer(bytes(sbox), dtype=np.uint8)
    rk_bytes, rk_words = _round_keys(bytes(key))
    count = len(data)
    gather = _pair_gather(count)

    flat = (data ^ rk_bytes[0]).ravel()
    for round_index in range(1, 10):
        pairs = flat.take(gather).view(np.uint16).reshape(2, count, 4)
        columns = t01.take(pairs[0])
        columns ^= t23.take(pairs[1])
        columns ^= rk_words[round_index]
        flat = columns.view(np.uint8).ravel()
    state = sbox_np.take(flat.reshape(count, 16)[:, _SHIFT])
    state ^= rk_bytes[10]
    return state


def random_plaintexts(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random (count, 16) plaintext array."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    return rng.integers(0, 256, size=(count, 16), dtype=np.uint8)
