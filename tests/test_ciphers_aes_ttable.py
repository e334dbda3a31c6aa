"""T-table AES: correctness and fault-location behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ciphers.aes import AES
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.aes_ttable import AES_TE_TABLES, AesTTable, generate_te_tables
from repro.ciphers.faults import FaultSpec, apply_fault
from repro.pfa.pfa import PfaState

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
PT = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestCorrectness:
    def test_fips_vector(self):
        assert (
            AesTTable(KEY).encrypt_block(PT).hex()
            == "69c4e0d86a7b0430d8cdb78070b4c55a"
        )

    @given(key=st.binary(min_size=16, max_size=16), pt=st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_implementation(self, key, pt):
        assert AesTTable(key).encrypt_block(pt) == AES(key).encrypt_block(pt)

    def test_te_tables_structure(self):
        tables = generate_te_tables()
        assert len(tables) == 4096
        # Te0[0x00]: S[0]=0x63 -> word (2*0x63, 0x63, 0x63, 3*0x63).
        word = int.from_bytes(tables[:4], "big")
        assert word == (0xC6 << 24) | (0x63 << 16) | (0x63 << 8) | 0xA5

    def test_te1_is_rotation_of_te0(self):
        te0 = int.from_bytes(AES_TE_TABLES[0:4], "big")
        te1 = int.from_bytes(AES_TE_TABLES[1024:1028], "big")
        assert te1 == ((te0 >> 8) | ((te0 & 0xFF) << 24)) & 0xFFFFFFFF


class TestValidation:
    def test_key_size(self):
        with pytest.raises(ValueError):
            AesTTable(bytes(24))

    def test_block_size(self):
        with pytest.raises(ValueError):
            AesTTable(KEY).encrypt_block(bytes(8))

    def test_bad_te_provider(self):
        ctx = AesTTable(KEY, te_provider=lambda: bytes(100))
        with pytest.raises(ValueError):
            ctx.encrypt_block(PT)

    def test_bad_sbox_provider(self):
        ctx = AesTTable(KEY, sbox_provider=lambda: bytes(16))
        with pytest.raises(ValueError):
            ctx.encrypt_block(PT)


class TestFaultLocation:
    """Where the flip lands decides whether PFA works — the reason the
    attack templates for the last-round table's page."""

    def _pfa_bits_after(self, ctx, blocks=3000, seed=0):
        rng = np.random.default_rng(seed)
        state = PfaState()
        cts = [
            ctx.encrypt_block(bytes(rng.integers(0, 256, size=16, dtype=np.uint8)))
            for _ in range(blocks)
        ]
        state.update(cts)
        return state.log2_keyspace()

    def test_last_round_sbox_fault_enables_pfa(self):
        faulty_sbox = apply_fault(AES_SBOX, FaultSpec(index=0x42, bit=3))
        ctx = AesTTable(KEY, sbox_provider=lambda: faulty_sbox)
        bits = self._pfa_bits_after(ctx)
        assert bits < 16.0  # key space collapsing

    def test_te_table_fault_defeats_pfa(self):
        """An inner-round fault corrupts ciphertexts but stays uniform."""
        faulty_te = bytearray(AES_TE_TABLES)
        faulty_te[100] ^= 0x08  # somewhere in Te0
        ctx = AesTTable(KEY, te_provider=lambda: bytes(faulty_te))
        # Ciphertexts ARE wrong for a good fraction of blocks (any block
        # whose nine table rounds consult the corrupted entry)...
        clean = AES(KEY)
        diffs = sum(
            ctx.encrypt_block(bytes([i, 7 * i % 256] * 8))
            != clean.encrypt_block(bytes([i, 7 * i % 256] * 8))
            for i in range(64)
        )
        assert diffs > 0
        # ...but the last-round statistics stay full: no missing values.
        bits = self._pfa_bits_after(ctx, blocks=3000)
        assert bits > 100.0

    def test_clean_tables_give_clean_cipher(self):
        ctx = AesTTable(KEY)
        assert ctx.encrypt_block(PT) == AES(KEY).encrypt_block(PT)
