"""AES-128/192/256 with a pluggable S-box source.

The implementation is the *table-lookup* style the fault-analysis
literature attacks: every block reads a 256-byte S-box from a provider
callable, which in the experiments is a view of a page inside a simulated
victim process — so a persistent DRAM fault in that page corrupts every
subsequent encryption, exactly the fault model of Persistent Fault
Analysis (Zhang et al., TCHES 2018).

The rounds run as T-table lookups derived from the S-box just fetched:
``Te0[x] = (2·S[x], S[x], S[x], 3·S[x])`` and Te1..Te3 are its byte
rotations, which is SubBytes → ShiftRows → MixColumns for *any* S-box,
faulty ones included.  The derivation is cached by the S-box bytes, so a
fault yields a new cache key and the next block sees it; the fetch itself
happens on every block.  :class:`repro.ciphers.aes_ttable.AesTTable`
shares the round function, with its Te tables fetched instead of derived.

State layout is the FIPS-197 column-major order: flat index ``r + 4*c``,
so column ``c`` is the big-endian word of bytes ``4c..4c+3``.  Blocks and
keys are ``bytes``; round keys are expanded once (with a chosen S-box, by
default the clean one) and reused.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Sequence
from functools import lru_cache

from repro.ciphers.aes_tables import (
    AES_INV_SBOX,
    AES_RCON,
    AES_SBOX,
    INV_SHIFT_ROWS_PERM,
    gf_mul,
)

SBoxProvider = Callable[[], bytes]


class InvalidKeySize(ValueError):
    """Key length is not 16, 24 or 32 bytes."""


_ROUNDS = {16: 10, 24: 12, 32: 14}


def expand_key(key: bytes, sbox: bytes = AES_SBOX) -> list[bytes]:
    """FIPS-197 key expansion; returns ``rounds + 1`` 16-byte round keys.

    The S-box is a parameter so experiments can model a fault landing
    *before* key expansion; by default the clean table is used (round keys
    are normally computed once at startup, before the attacker hammers).
    The schedule is a pure function of the key and S-box bytes, so it is
    memoised on them (a bounded cache); each call returns a fresh list.
    """
    if len(key) not in _ROUNDS:
        raise InvalidKeySize(f"key must be 16/24/32 bytes, got {len(key)}")
    return list(_expand_key(bytes(key), bytes(sbox)))


@lru_cache(maxsize=64)
def _expand_key(key: bytes, sbox: bytes) -> tuple[bytes, ...]:
    nk = len(key) // 4
    rounds = _ROUNDS[len(key)]
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]  # RotWord
            temp = [sbox[b] for b in temp]  # SubWord
            temp[0] ^= AES_RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            temp = [sbox[b] for b in temp]
        words.append([a ^ b for a, b in zip(words[i - nk], temp)])
    return tuple(
        bytes(b for word in words[4 * r : 4 * r + 4] for b in word)
        for r in range(rounds + 1)
    )


def _inv_mix_single_column(col: list[int]) -> list[int]:
    a0, a1, a2, a3 = col
    return [
        gf_mul(a0, 14) ^ gf_mul(a1, 11) ^ gf_mul(a2, 13) ^ gf_mul(a3, 9),
        gf_mul(a0, 9) ^ gf_mul(a1, 14) ^ gf_mul(a2, 11) ^ gf_mul(a3, 13),
        gf_mul(a0, 13) ^ gf_mul(a1, 9) ^ gf_mul(a2, 14) ^ gf_mul(a3, 11),
        gf_mul(a0, 11) ^ gf_mul(a1, 13) ^ gf_mul(a2, 9) ^ gf_mul(a3, 14),
    ]


_MUL2 = bytes(gf_mul(x, 2) for x in range(256))
_MUL3 = bytes(gf_mul(x, 3) for x in range(256))
_BLOCK = struct.Struct(">4I")

TeTables = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=16)
def te_tables(sbox: bytes) -> TeTables:
    """Te0..Te3 for ``sbox``, as four 256-word tuples (cached by content).

    ``Te0[x]`` holds the MixColumns contribution of a substituted row-0
    byte, ``(2s, s, s, 3s)`` from the most significant byte down, with
    ``s = sbox[x]``; Te1..Te3 are its byte rotations to the right.
    """
    te0 = tuple((_MUL2[s] << 24) | (s << 16) | (s << 8) | _MUL3[s] for s in sbox)
    te1 = tuple((_MUL3[s] << 24) | (_MUL2[s] << 16) | (s << 8) | s for s in sbox)
    te2 = tuple((s << 24) | (_MUL3[s] << 16) | (_MUL2[s] << 8) | s for s in sbox)
    te3 = tuple((s << 24) | (s << 16) | (_MUL3[s] << 8) | _MUL2[s] for s in sbox)
    return te0, te1, te2, te3


def round_key_words(round_keys: Sequence[bytes]) -> tuple[tuple[int, ...], ...]:
    """Each 16-byte round key as its four big-endian column words."""
    return tuple(_BLOCK.unpack(rk) for rk in round_keys)


def encrypt_rounds(
    block: bytes,
    key_words: Sequence[Sequence[int]],
    te: TeTables,
    sbox: bytes,
    transient_fault: tuple[int, int] | None = None,
) -> bytes:
    """One AES encryption: T-table inner rounds, then an S-box final round.

    ``key_words`` holds ``rounds + 1`` round keys as column words.
    ``transient_fault`` is ``(position, xor_mask)`` on the flat state just
    before the final SubBytes: byte ``position % 4`` (row) of column
    ``position // 4``.
    """
    te0, te1, te2, te3 = te
    s0, s1, s2, s3 = _BLOCK.unpack(block)
    k0, k1, k2, k3 = key_words[0]
    s0 ^= k0
    s1 ^= k1
    s2 ^= k2
    s3 ^= k3
    for k0, k1, k2, k3 in key_words[1:-1]:
        s0, s1, s2, s3 = (
            te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF] ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ k0,
            te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF] ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ k1,
            te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF] ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ k2,
            te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF] ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ k3,
        )
    if transient_fault is not None:
        position, mask = transient_fault
        columns = [s0, s1, s2, s3]
        columns[position // 4] ^= (mask & 0xFF) << (8 * (3 - position % 4))
        s0, s1, s2, s3 = columns
    k0, k1, k2, k3 = key_words[-1]
    return _BLOCK.pack(
        ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
         | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ k0,
        ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
         | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) ^ k1,
        ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
         | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) ^ k2,
        ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
         | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) ^ k3,
    )


class AES:
    """One AES context: expanded round keys plus an S-box source."""

    def __init__(
        self,
        key: bytes,
        sbox_provider: SBoxProvider | None = None,
        key_schedule_sbox: bytes = AES_SBOX,
    ):
        self.key = bytes(key)
        self.rounds = _ROUNDS.get(len(self.key))
        if self.rounds is None:
            raise InvalidKeySize(f"key must be 16/24/32 bytes, got {len(key)}")
        self.round_keys = expand_key(self.key, key_schedule_sbox)
        self._key_words = round_key_words(self.round_keys)
        self._sbox_provider = sbox_provider or (lambda: AES_SBOX)

    def current_sbox(self) -> bytes:
        """Fetch the S-box from the provider (may be faulty)."""
        sbox = bytes(self._sbox_provider())
        if len(sbox) != 256:
            raise ValueError(f"S-box must be 256 bytes, got {len(sbox)}")
        return sbox

    # -- encryption ------------------------------------------------------------

    def encrypt_block(
        self,
        plaintext: bytes,
        transient_fault: tuple[int, int] | None = None,
    ) -> bytes:
        """Encrypt one 16-byte block with the provider's current S-box.

        ``transient_fault`` is an optional ``(position, xor_mask)`` applied
        to the state immediately before the final SubBytes — the classic
        last-round DFA fault model, used by the baseline analysis.
        """
        if len(plaintext) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(plaintext)}")
        sbox = self.current_sbox()
        if transient_fault is not None and not 0 <= transient_fault[0] < 16:
            raise ValueError(f"fault position {transient_fault[0]} out of range [0, 16)")
        return encrypt_rounds(
            plaintext, self._key_words, te_tables(sbox), sbox, transient_fault
        )

    # -- decryption (always with the clean inverse table) -------------------------

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt one block using the clean inverse S-box.

        Decryption exists for correctness tests; the fault experiments only
        ever need encryption (the attacker sees ciphertexts).
        """
        if len(ciphertext) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(ciphertext)}")
        state = [c ^ k for c, k in zip(ciphertext, self.round_keys[self.rounds])]
        state = [state[INV_SHIFT_ROWS_PERM[i]] for i in range(16)]
        state = [AES_INV_SBOX[b] for b in state]
        for round_index in range(self.rounds - 1, 0, -1):
            key = self.round_keys[round_index]
            state = [b ^ k for b, k in zip(state, key)]
            unmixed = []
            for c in range(4):
                unmixed += _inv_mix_single_column(state[4 * c : 4 * c + 4])
            state = [unmixed[INV_SHIFT_ROWS_PERM[i]] for i in range(16)]
            state = [AES_INV_SBOX[b] for b in state]
        return bytes(b ^ k for b, k in zip(state, self.round_keys[0]))
