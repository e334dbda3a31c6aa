"""The table-driven ciphers equal the straightforward reference loops.

The oracles live in :mod:`tests.cipher_references`.  Faulty tables are
drawn as one or more bit flips of the clean table, the way DRAM faults
reach them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ciphers.aes import AES, te_tables
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.aes_ttable import AES_TE_TABLES, AesTTable, _parse_te, generate_te_tables
from repro.ciphers.present import PRESENT_SBOX, Present, inv_p_layer, p_layer
from tests.cipher_references import (
    aes_encrypt_reference,
    inv_p_layer_reference,
    p_layer_reference,
    parse_te_reference,
    present_decrypt_reference,
    present_encrypt_reference,
    te_bytes_reference,
    ttable_encrypt_reference,
)

states = st.integers(min_value=0, max_value=(1 << 64) - 1)
blocks16 = st.binary(min_size=16, max_size=16)
blocks8 = st.binary(min_size=8, max_size=8)
aes_keys = st.sampled_from([16, 24, 32]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)


def flipped(table: bytes, flips: list[tuple[int, int]]) -> bytes:
    """``table`` with bit ``bit`` of entry ``index`` flipped, per flip."""
    out = bytearray(table)
    for index, bit in flips:
        out[index] ^= 1 << bit
    return bytes(out)


def flips_in(size: int, max_flips: int = 4):
    return st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, 7)),
        min_size=1,
        max_size=max_flips,
    )


class TestPLayer:
    @given(state=states)
    @settings(max_examples=200)
    def test_p_layer(self, state):
        assert p_layer(state) == p_layer_reference(state)

    @given(state=states)
    @settings(max_examples=200)
    def test_inv_p_layer(self, state):
        assert inv_p_layer(state) == inv_p_layer_reference(state)

    @pytest.mark.parametrize("bit", range(64))
    def test_single_bits(self, bit):
        assert p_layer(1 << bit) == p_layer_reference(1 << bit)
        assert inv_p_layer(1 << bit) == inv_p_layer_reference(1 << bit)


class TestPresent:
    @given(key=st.sampled_from([10, 16]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
           pt=blocks8)
    @settings(max_examples=40, deadline=None)
    def test_clean(self, key, pt):
        cipher = Present(key)
        ct = cipher.encrypt_block(pt)
        assert ct == present_encrypt_reference(key, pt, PRESENT_SBOX)
        assert cipher.decrypt_block(ct) == present_decrypt_reference(key, ct, PRESENT_SBOX)

    @given(key=st.binary(min_size=10, max_size=10), pt=blocks8, flips=flips_in(16))
    @settings(max_examples=60, deadline=None)
    def test_faulty_sbox(self, key, pt, flips):
        faulty = flipped(PRESENT_SBOX, flips)
        cipher = Present(key, sbox_provider=lambda: faulty)
        assert cipher.encrypt_block(pt) == present_encrypt_reference(key, pt, faulty)


class TestAes:
    @given(key=aes_keys, pt=blocks16)
    @settings(max_examples=60, deadline=None)
    def test_clean(self, key, pt):
        assert AES(key).encrypt_block(pt) == aes_encrypt_reference(key, pt)

    @given(key=aes_keys, pt=blocks16, flips=flips_in(256, max_flips=1))
    @settings(max_examples=60, deadline=None)
    def test_single_bit_faulty_sbox(self, key, pt, flips):
        faulty = flipped(AES_SBOX, flips)
        cipher = AES(key, sbox_provider=lambda: faulty)
        assert cipher.encrypt_block(pt) == aes_encrypt_reference(key, pt, faulty)

    @given(key=aes_keys, pt=blocks16, flips=flips_in(256, max_flips=8))
    @settings(max_examples=60, deadline=None)
    def test_multi_bit_faulty_sbox(self, key, pt, flips):
        faulty = flipped(AES_SBOX, flips)
        cipher = AES(key, sbox_provider=lambda: faulty)
        assert cipher.encrypt_block(pt) == aes_encrypt_reference(key, pt, faulty)

    @pytest.mark.parametrize("position", range(16))
    @given(key=aes_keys, pt=blocks16, mask=st.integers(0, 255))
    @settings(max_examples=10, deadline=None)
    def test_transient_fault(self, position, key, pt, mask):
        got = AES(key).encrypt_block(pt, transient_fault=(position, mask))
        assert got == aes_encrypt_reference(key, pt, transient_fault=(position, mask))


class TestTTable:
    def test_generated_te_matches_reference(self):
        assert generate_te_tables() == AES_TE_TABLES == te_bytes_reference()

    @given(flips=flips_in(256, max_flips=8))
    @settings(max_examples=30, deadline=None)
    def test_te_builder_for_faulty_sbox(self, flips):
        faulty = flipped(AES_SBOX, flips)
        assert list(map(list, te_tables(faulty))) == parse_te_reference(
            te_bytes_reference(faulty)
        )

    @given(flips=flips_in(4096, max_flips=8))
    @settings(max_examples=30, deadline=None)
    def test_parse_te(self, flips):
        raw = flipped(AES_TE_TABLES, flips)
        assert list(map(list, _parse_te(raw))) == parse_te_reference(raw)

    @given(key=blocks16, pt=blocks16)
    @settings(max_examples=40, deadline=None)
    def test_clean(self, key, pt):
        expected = ttable_encrypt_reference(key, pt, AES_TE_TABLES)
        assert AesTTable(key).encrypt_block(pt) == expected
        assert aes_encrypt_reference(key, pt) == expected

    @given(key=blocks16, pt=blocks16, te_flips=flips_in(4096), sbox_flips=flips_in(256))
    @settings(max_examples=60, deadline=None)
    def test_faulty_te_and_sbox(self, key, pt, te_flips, sbox_flips):
        te = flipped(AES_TE_TABLES, te_flips)
        sbox = flipped(AES_SBOX, sbox_flips)
        cipher = AesTTable(key, te_provider=lambda: te, sbox_provider=lambda: sbox)
        assert cipher.encrypt_block(pt) == ttable_encrypt_reference(key, pt, te, sbox)
