"""Test-only reference ciphers: the straightforward loops, kept as oracles.

``repro.ciphers`` runs AES as T-table rounds derived from the fetched
S-box (scalar and batched), decodes fetched Te blocks through a
content-keyed cache, and runs PRESENT through byte-indexed tables.  The
functions here are the direct formulations those replaced — byte-wise
SubBytes/ShiftRows/MixColumns (one block, and a NumPy batch), word-by-word
Te parsing, a GF(2^8) Te generator, the bit-by-bit pLayer and the
uncached AES key expansion — and share no code with them beyond the
PRESENT key schedule, so equality tests against them stay independent
checks.
"""

from __future__ import annotations

import numpy as np

from repro.ciphers.aes_tables import AES_RCON, AES_SBOX, SHIFT_ROWS_PERM, gf_mul
from repro.ciphers.present import Present

# -- AES -----------------------------------------------------------------------


def expand_key_reference(key: bytes, sbox: bytes = AES_SBOX) -> list[bytes]:
    """FIPS-197 key expansion as a word loop, recomputed on every call."""
    if len(key) not in (16, 24, 32):
        raise ValueError(f"key must be 16/24/32 bytes, got {len(key)}")
    nk = len(key) // 4
    rounds = nk + 6
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]
            temp = [sbox[b] for b in temp]
            temp[0] ^= AES_RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            temp = [sbox[b] for b in temp]
        words.append([a ^ b for a, b in zip(words[i - nk], temp)])
    return [
        bytes(b for word in words[4 * r : 4 * r + 4] for b in word)
        for r in range(rounds + 1)
    ]


def _mix_single_column(col: list[int]) -> list[int]:
    a0, a1, a2, a3 = col
    return [
        gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3,
        a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3,
        a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3),
        gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2),
    ]


def mix_columns_reference(state: list[int]) -> list[int]:
    """MixColumns over a flat column-major state."""
    out = []
    for c in range(4):
        out += _mix_single_column(state[4 * c : 4 * c + 4])
    return out


def aes_encrypt_reference(
    key: bytes,
    plaintext: bytes,
    sbox: bytes = AES_SBOX,
    transient_fault: tuple[int, int] | None = None,
) -> bytes:
    """AES-128/192/256, one byte-wise round at a time, with ``sbox``.

    The key schedule uses the clean S-box; ``transient_fault`` XORs
    ``mask`` into flat state byte ``position`` before the final SubBytes.
    """
    round_keys = expand_key_reference(key)
    rounds = len(round_keys) - 1
    state = [p ^ k for p, k in zip(plaintext, round_keys[0])]
    for round_index in range(1, rounds):
        state = [sbox[b] for b in state]
        state = [state[SHIFT_ROWS_PERM[i]] for i in range(16)]
        state = mix_columns_reference(state)
        state = [b ^ k for b, k in zip(state, round_keys[round_index])]
    if transient_fault is not None:
        position, mask = transient_fault
        state[position] ^= mask & 0xFF
    state = [sbox[b] for b in state]
    state = [state[SHIFT_ROWS_PERM[i]] for i in range(16)]
    return bytes(b ^ k for b, k in zip(state, round_keys[rounds]))


_MUL2 = np.array([gf_mul(x, 2) for x in range(256)], dtype=np.uint8)
_MUL3 = np.array([gf_mul(x, 3) for x in range(256)], dtype=np.uint8)
_SHIFT = np.array(SHIFT_ROWS_PERM, dtype=np.intp)


def _mix_columns(state: np.ndarray) -> np.ndarray:
    """MixColumns over an (N, 16) column-major state array."""
    cols = state.reshape(-1, 4, 4)  # (N, column, row)
    a0 = cols[:, :, 0]
    a1 = cols[:, :, 1]
    a2 = cols[:, :, 2]
    a3 = cols[:, :, 3]
    mixed = np.empty_like(cols)
    mixed[:, :, 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
    mixed[:, :, 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
    mixed[:, :, 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
    mixed[:, :, 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
    return mixed.reshape(-1, 16)


def aes128_encrypt_batch_reference(
    plaintexts: np.ndarray, key: bytes, sbox: bytes = AES_SBOX
) -> np.ndarray:
    """AES-128 over an (N, 16) uint8 array, one byte-wise round at a time."""
    round_keys = [np.frombuffer(rk, dtype=np.uint8) for rk in expand_key_reference(key)]
    sbox_np = np.frombuffer(bytes(sbox), dtype=np.uint8)
    state = np.asarray(plaintexts, dtype=np.uint8) ^ round_keys[0]
    for round_index in range(1, 10):
        state = sbox_np[state]
        state = state[:, _SHIFT]
        state = _mix_columns(state)
        state ^= round_keys[round_index]
    state = sbox_np[state]
    state = state[:, _SHIFT]
    state ^= round_keys[10]
    return state


def te_bytes_reference(sbox: bytes = AES_SBOX) -> bytes:
    """Te0..Te3 for ``sbox`` as 4096 bytes, built with GF(2^8) products."""
    te0 = [
        (gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | gf_mul(s, 3) for s in sbox
    ]
    tables = [te0]
    for _ in range(3):
        tables.append(
            [((word >> 8) | ((word & 0xFF) << 24)) & 0xFFFFFFFF for word in tables[-1]]
        )
    return b"".join(word.to_bytes(4, "big") for table in tables for word in table)


def parse_te_reference(raw: bytes) -> list[list[int]]:
    """4096 Te bytes as four lists of 256 words, one word at a time."""
    return [
        [
            int.from_bytes(raw[1024 * t + 4 * i : 1024 * t + 4 * i + 4], "big")
            for i in range(256)
        ]
        for t in range(4)
    ]


def ttable_encrypt_reference(
    key: bytes, plaintext: bytes, te_raw: bytes, sbox: bytes = AES_SBOX
) -> bytes:
    """AES-128 through the Te block ``te_raw`` and the last-round ``sbox``."""
    te0, te1, te2, te3 = parse_te_reference(te_raw)
    key_words = [
        [int.from_bytes(rk[4 * c : 4 * c + 4], "big") for c in range(4)]
        for rk in expand_key_reference(key)
    ]
    columns = [
        int.from_bytes(plaintext[4 * c : 4 * c + 4], "big") ^ key_words[0][c]
        for c in range(4)
    ]
    for round_index in range(1, 10):
        rk = key_words[round_index]
        columns = [
            te0[columns[c] >> 24]
            ^ te1[(columns[(c + 1) % 4] >> 16) & 0xFF]
            ^ te2[(columns[(c + 2) % 4] >> 8) & 0xFF]
            ^ te3[columns[(c + 3) % 4] & 0xFF]
            ^ rk[c]
            for c in range(4)
        ]
    final = [
        (
            (sbox[columns[c] >> 24] << 24)
            | (sbox[(columns[(c + 1) % 4] >> 16) & 0xFF] << 16)
            | (sbox[(columns[(c + 2) % 4] >> 8) & 0xFF] << 8)
            | sbox[columns[(c + 3) % 4] & 0xFF]
        )
        ^ key_words[10][c]
        for c in range(4)
    ]
    return b"".join(word.to_bytes(4, "big") for word in final)


# -- PRESENT -------------------------------------------------------------------

_PLAYER = [63 if i == 63 else (16 * i) % 63 for i in range(64)]


def p_layer_reference(state: int) -> int:
    """The PRESENT pLayer, one bit at a time: bit i moves to P(i)."""
    out = 0
    for i in range(64):
        if (state >> i) & 1:
            out |= 1 << _PLAYER[i]
    return out


def inv_p_layer_reference(state: int) -> int:
    """Inverse pLayer, one bit at a time: bit P(i) moves back to i."""
    out = 0
    for i in range(64):
        if (state >> _PLAYER[i]) & 1:
            out |= 1 << i
    return out


def present_encrypt_reference(key: bytes, plaintext: bytes, sbox: bytes) -> bytes:
    """PRESENT with ``sbox`` (low nibble of each entry), nibble by nibble."""
    round_keys = Present(key).round_keys
    state = int.from_bytes(plaintext, "big")
    for round_key in round_keys[:31]:
        state ^= round_key
        substituted = 0
        for nibble in range(16):
            value = (state >> (4 * nibble)) & 0xF
            substituted |= (sbox[value] & 0xF) << (4 * nibble)
        state = p_layer_reference(substituted)
    return (state ^ round_keys[31]).to_bytes(8, "big")


def present_decrypt_reference(key: bytes, ciphertext: bytes, sbox: bytes) -> bytes:
    """Inverse of :func:`present_encrypt_reference` for a bijective ``sbox``."""
    inv_sbox = [sbox.index(v) for v in range(16)]
    round_keys = Present(key).round_keys
    state = int.from_bytes(ciphertext, "big") ^ round_keys[31]
    for round_key in reversed(round_keys[:31]):
        unpermuted = inv_p_layer_reference(state)
        state = 0
        for nibble in range(16):
            state |= inv_sbox[(unpermuted >> (4 * nibble)) & 0xF] << (4 * nibble)
        state ^= round_key
    return state.to_bytes(8, "big")
