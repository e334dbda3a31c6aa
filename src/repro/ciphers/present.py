"""PRESENT-80/128 (Bogdanov et al., CHES 2007).

A second block cipher for the fault experiments: 64-bit blocks, 31 rounds,
a single 4-bit S-box applied sixteen times per round, and a bit
permutation.  Like the AES context, the S-box comes from a provider
callable so a memory-resident table can be faulted persistently.

The S-box here is stored nibble-per-byte (16 bytes) so a single DRAM bit
flip corrupts exactly one S-box entry, mirroring the AES setup.  Only the
low nibble of each entry is used, as a 4-bit implementation would.

The pLayer is eight lookups in byte-indexed tables built at import.  An
encryption round fuses the S-layer with the pLayer the same way: eight
per-byte tables derived from the S-box just fetched, cached by its bytes
(a fault is a new key, so the next block sees it).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

PRESENT_SBOX = bytes(
    [0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2]
)

# pLayer: output bit P(i) takes input bit i.
_PLAYER = tuple(
    63 if i == 63 else (16 * i) % 63 for i in range(64)
)
_INV_PLAYER = tuple(_PLAYER.index(i) for i in range(64))

NibbleProvider = Callable[[], bytes]

ByteTables = tuple[tuple[int, ...], ...]


def _byte_tables(perm: tuple[int, ...]) -> ByteTables:
    """``tables[j][b]``: the bit permutation of byte value ``b`` at byte ``j``."""
    tables = []
    for j in range(8):
        table = [0] * 256
        for b in range(1, 256):
            low = b & -b  # b's lowest set bit; the rest is already in the table
            table[b] = table[b ^ low] | (1 << perm[8 * j + low.bit_length() - 1])
        tables.append(tuple(table))
    return tuple(tables)


_P_BYTES = _byte_tables(_PLAYER)
_INV_P_BYTES = _byte_tables(_INV_PLAYER)


def _permute_bytes(state: int, tables: ByteTables) -> int:
    t0, t1, t2, t3, t4, t5, t6, t7 = tables
    return (
        t0[state & 0xFF]
        | t1[(state >> 8) & 0xFF]
        | t2[(state >> 16) & 0xFF]
        | t3[(state >> 24) & 0xFF]
        | t4[(state >> 32) & 0xFF]
        | t5[(state >> 40) & 0xFF]
        | t6[(state >> 48) & 0xFF]
        | t7[state >> 56]
    )


def p_layer(state: int) -> int:
    """The PRESENT bit permutation over a 64-bit state."""
    return _permute_bytes(state, _P_BYTES)


def inv_p_layer(state: int) -> int:
    """Inverse of :func:`p_layer`."""
    return _permute_bytes(state, _INV_P_BYTES)


@lru_cache(maxsize=16)
def _round_tables(sbox: bytes) -> ByteTables:
    """S-layer then pLayer as eight per-byte tables (cached by content)."""
    substituted = [
        (sbox[b & 0xF] & 0xF) | ((sbox[b >> 4] & 0xF) << 4) for b in range(256)
    ]
    return tuple(tuple(table[v] for v in substituted) for table in _P_BYTES)


# Inverse S-box applied to both nibbles of a byte, for bytes.translate.
_INV_SBOX = bytes(PRESENT_SBOX.index(v) for v in range(16))
_INV_SBOX_BYTES = bytes(_INV_SBOX[b & 0xF] | (_INV_SBOX[b >> 4] << 4) for b in range(256))


class Present:
    """One PRESENT context: round keys plus an S-box source."""

    ROUNDS = 31

    def __init__(self, key: bytes, sbox_provider: NibbleProvider | None = None):
        if len(key) not in (10, 16):
            raise ValueError("PRESENT key must be 10 (80-bit) or 16 (128-bit) bytes")
        self.key = bytes(key)
        self._sbox_provider = sbox_provider or (lambda: PRESENT_SBOX)
        # Round keys are derived with the clean S-box (computed at startup,
        # before any fault lands), matching the persistent-fault timeline.
        if len(key) == 10:
            self.round_keys = self._schedule_80(int.from_bytes(key, "big"))
        else:
            self.round_keys = self._schedule_128(int.from_bytes(key, "big"))

    def _schedule_80(self, register: int) -> list[int]:
        keys = []
        for round_index in range(1, self.ROUNDS + 2):
            keys.append(register >> 16)
            register = ((register << 61) | (register >> 19)) & ((1 << 80) - 1)
            top = PRESENT_SBOX[register >> 76]
            register = (top << 76) | (register & ((1 << 76) - 1))
            register ^= round_index << 15
        return keys

    def _schedule_128(self, register: int) -> list[int]:
        keys = []
        for round_index in range(1, self.ROUNDS + 2):
            keys.append(register >> 64)
            register = ((register << 61) | (register >> 67)) & ((1 << 128) - 1)
            top2 = (
                (PRESENT_SBOX[register >> 124] << 4)
                | PRESENT_SBOX[(register >> 120) & 0xF]
            )
            register = (top2 << 120) | (register & ((1 << 120) - 1))
            register ^= round_index << 62
        return keys

    def current_sbox(self) -> bytes:
        """Fetch the (possibly faulty) 16-entry S-box."""
        sbox = bytes(self._sbox_provider())
        if len(sbox) != 16:
            raise ValueError(f"PRESENT S-box must be 16 bytes, got {len(sbox)}")
        return sbox

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt one 8-byte block."""
        if len(plaintext) != 8:
            raise ValueError(f"block must be 8 bytes, got {len(plaintext)}")
        tables = _round_tables(self.current_sbox())
        state = int.from_bytes(plaintext, "big")
        for key in self.round_keys[: self.ROUNDS]:
            state = _permute_bytes(state ^ key, tables)
        state ^= self.round_keys[self.ROUNDS]
        return state.to_bytes(8, "big")

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt one block (clean S-box; for correctness tests)."""
        if len(ciphertext) != 8:
            raise ValueError(f"block must be 8 bytes, got {len(ciphertext)}")
        state = int.from_bytes(ciphertext, "big") ^ self.round_keys[self.ROUNDS]
        for key in reversed(self.round_keys[: self.ROUNDS]):
            unpermuted = inv_p_layer(state).to_bytes(8, "big")
            state = int.from_bytes(unpermuted.translate(_INV_SBOX_BYTES), "big") ^ key
        return state.to_bytes(8, "big")
