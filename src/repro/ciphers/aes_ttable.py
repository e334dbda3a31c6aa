"""T-table AES-128: the classic software implementation under attack.

Production AES software (pre-AES-NI OpenSSL and friends) merges SubBytes,
ShiftRows and MixColumns into four 1 KiB lookup tables Te0..Te3 of 32-bit
words, with a plain S-box (often called Te4) for the final round.  The
whole working set is five tables in ordinary data pages — exactly the
target surface of a persistent memory fault.

Fault behaviour, which the tests pin down:

* a fault in the **last-round S-box** gives the canonical PFA setting:
  one ciphertext-byte value becomes impossible and the key falls out
  (same analysis as :mod:`repro.pfa.pfa`);
* a fault in **Te0..Te3** corrupts inner rounds: ciphertexts are wrong,
  but the final-round statistics stay uniform, so the missing-value
  analysis never converges — the attacker must land her flip in the
  last-round table's page, which is why ExplFrame templates for a
  specific in-page offset range.

Every block fetches both tables from their providers, so a fault in
either page shows from the next block on.  The fetched Te bytes are
decoded into words once per distinct content (a small cache keyed by the
raw bytes; a fault is a new key), and the rounds run through the same
function as :class:`repro.ciphers.aes.AES`, which derives its Te tables
from the S-box instead.  The clean tables come from the same builder and
are cross-checked against FIPS-197 vectors.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from functools import lru_cache

from repro.ciphers.aes import (
    TeTables,
    encrypt_rounds,
    expand_key,
    round_key_words,
    te_tables,
)
from repro.ciphers.aes_tables import AES_SBOX

TableProvider = Callable[[], bytes]

_TE_WORDS = struct.Struct(">1024I")


def generate_te_tables() -> bytes:
    """Te0..Te3 as 4096 bytes (4 tables x 256 big-endian 32-bit words).

    ``Te0[x]`` holds the MixColumns contribution of a substituted row-0
    byte: ``(2s, s, s, 3s)``; Te1..Te3 are its byte rotations.
    """
    return _TE_WORDS.pack(*(word for table in te_tables(AES_SBOX) for word in table))


AES_TE_TABLES = generate_te_tables()


@lru_cache(maxsize=16)
def _parse_te(raw: bytes) -> TeTables:
    """The 4096 fetched Te bytes as four 256-word tuples (cached by content)."""
    if len(raw) != 4096:
        raise ValueError(f"Te tables must be 4096 bytes, got {len(raw)}")
    words = _TE_WORDS.unpack(raw)
    return words[0:256], words[256:512], words[512:768], words[768:1024]


class AesTTable:
    """AES-128 encryption through Te0..Te3 plus a last-round S-box.

    Both table sets come from providers, so either can live in (and be
    faulted through) simulated memory.  Only encryption is implemented —
    the fault experiments never need the inverse cipher.
    """

    def __init__(
        self,
        key: bytes,
        te_provider: TableProvider | None = None,
        sbox_provider: TableProvider | None = None,
    ):
        if len(key) != 16:
            raise ValueError(f"T-table context is AES-128 only; key of {len(key)} bytes")
        self.key = bytes(key)
        self.round_key_words = round_key_words(expand_key(self.key))
        self._te_provider = te_provider or (lambda: AES_TE_TABLES)
        self._sbox_provider = sbox_provider or (lambda: AES_SBOX)

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt one block with the providers' current tables."""
        if len(plaintext) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(plaintext)}")
        te = _parse_te(bytes(self._te_provider()))
        sbox = bytes(self._sbox_provider())
        if len(sbox) != 256:
            raise ValueError(f"S-box must be 256 bytes, got {len(sbox)}")
        return encrypt_rounds(plaintext, self.round_key_words, te, sbox)
