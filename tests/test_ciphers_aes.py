"""AES correctness: FIPS-197 vectors, round trips, fault hooks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ciphers.aes import AES, InvalidKeySize, _expand_key, expand_key
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.aes_ttable import AES_TE_TABLES, AesTTable
from repro.ciphers.faults import FaultSpec, apply_fault
from repro.ciphers.present import PRESENT_SBOX, Present
from tests.cipher_references import expand_key_reference

PT = bytes.fromhex("00112233445566778899aabbccddeeff")
KEY128 = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
KEY192 = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
KEY256 = bytes(range(32))


class TestFipsVectors:
    def test_aes128(self):
        assert AES(KEY128).encrypt_block(PT).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192(self):
        assert AES(KEY192).encrypt_block(PT).hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256(self):
        assert AES(KEY256).encrypt_block(PT).hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_key_expansion_appendix_a(self):
        """FIPS-197 Appendix A.1: last round key of the 128-bit schedule."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        round_keys = expand_key(key)
        assert round_keys[10].hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"

    def test_round_key_count(self):
        assert len(expand_key(KEY128)) == 11
        assert len(expand_key(KEY192)) == 13
        assert len(expand_key(KEY256)) == 15


sbox_flips = st.lists(st.tuples(st.integers(0, 255), st.integers(0, 7)), max_size=3)


def flipped(flips) -> bytes:
    out = bytearray(AES_SBOX)
    for index, bit in flips:
        out[index] ^= 1 << bit
    return bytes(out)


class TestKeyScheduleCache:
    """``expand_key`` is memoised on (key, S-box) bytes: same answers, fresh lists."""

    @given(
        key=st.sampled_from([16, 24, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
        flips=sbox_flips,
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_uncached_expansion(self, key, flips):
        sbox = flipped(flips)
        expected = expand_key_reference(key, sbox)
        assert expand_key(key, sbox) == expected
        assert expand_key(bytearray(key), bytearray(sbox)) == expected  # a hit

    def test_returned_list_is_fresh(self):
        first = expand_key(KEY128)
        first[10] = bytes(16)
        first.append(b"extra")
        assert expand_key(KEY128) == expand_key_reference(KEY128)
        assert expand_key(KEY128) is not expand_key(KEY128)

    def test_cache_is_bounded(self):
        maxsize = _expand_key.cache_info().maxsize
        assert maxsize is not None
        for n in range(maxsize + 8):
            expand_key(n.to_bytes(16, "big"))
        assert _expand_key.cache_info().currsize <= maxsize

    def test_bad_length_makes_no_entry(self):
        before = _expand_key.cache_info()
        for length in (0, 15, 20, 33):
            with pytest.raises(InvalidKeySize):
                expand_key(bytes(length))
        after = _expand_key.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)


class TestRoundTrips:
    @given(key=st.binary(min_size=16, max_size=16), pt=st.binary(min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_encrypt_decrypt_128(self, key, pt):
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(pt)) == pt

    @given(key=st.binary(min_size=32, max_size=32), pt=st.binary(min_size=16, max_size=16))
    @settings(max_examples=10, deadline=None)
    def test_encrypt_decrypt_256(self, key, pt):
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(pt)) == pt


class TestValidation:
    def test_bad_key_size(self):
        with pytest.raises(InvalidKeySize):
            AES(b"short")
        with pytest.raises(InvalidKeySize):
            expand_key(bytes(20))

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            AES(KEY128).encrypt_block(b"short")
        with pytest.raises(ValueError):
            AES(KEY128).decrypt_block(b"short")

    def test_bad_sbox_from_provider(self):
        aes = AES(KEY128, sbox_provider=lambda: b"tiny")
        with pytest.raises(ValueError):
            aes.encrypt_block(PT)


class TestFaultySbox:
    def test_faulty_provider_changes_ciphertexts(self):
        faulty = apply_fault(AES_SBOX, FaultSpec(index=0, bit=0))
        clean_ct = AES(KEY128).encrypt_block(PT)
        # The faulty table is consulted every round; most blocks differ.
        faulty_ct = AES(KEY128, sbox_provider=lambda: faulty).encrypt_block(PT)
        assert clean_ct != faulty_ct or True  # may coincide for one block...
        # ...but over many random-ish blocks at least one must differ.
        diffs = 0
        clean_aes = AES(KEY128)
        faulty_aes = AES(KEY128, sbox_provider=lambda: faulty)
        for i in range(32):
            block = bytes([i, 255 - i] * 8)
            if clean_aes.encrypt_block(block) != faulty_aes.encrypt_block(block):
                diffs += 1
        assert diffs > 0

    def test_key_schedule_uses_clean_sbox_by_default(self):
        faulty = apply_fault(AES_SBOX, FaultSpec(index=0x42, bit=3))
        aes = AES(KEY128, sbox_provider=lambda: faulty)
        assert aes.round_keys == expand_key(KEY128)

    def test_provider_reread_every_block(self):
        calls = []

        def provider():
            calls.append(1)
            return AES_SBOX

        aes = AES(KEY128, sbox_provider=provider)
        aes.encrypt_block(PT)
        aes.encrypt_block(PT)
        assert len(calls) == 2

    def test_present_provider_reread_every_block(self):
        calls = []

        def provider():
            calls.append(1)
            return PRESENT_SBOX

        present = Present(bytes(10), sbox_provider=provider)
        present.encrypt_block(bytes(8))
        present.encrypt_block(bytes(8))
        assert len(calls) == 2

    def test_ttable_providers_reread_every_block(self):
        te_calls, sbox_calls = [], []

        def te_provider():
            te_calls.append(1)
            return AES_TE_TABLES

        def sbox_provider():
            sbox_calls.append(1)
            return AES_SBOX

        ctx = AesTTable(KEY128, te_provider=te_provider, sbox_provider=sbox_provider)
        for _ in range(3):
            ctx.encrypt_block(PT)
        assert len(te_calls) == len(sbox_calls) == 3


class TestTransientFault:
    def test_fault_changes_exactly_one_byte(self):
        aes = AES(KEY128)
        clean = aes.encrypt_block(PT)
        faulty = aes.encrypt_block(PT, transient_fault=(0, 0x01))
        differing = [i for i in range(16) if clean[i] != faulty[i]]
        assert len(differing) == 1

    def test_zero_mask_is_identity(self):
        aes = AES(KEY128)
        assert aes.encrypt_block(PT, transient_fault=(3, 0)) == aes.encrypt_block(PT)

    def test_position_validated(self):
        with pytest.raises(ValueError):
            AES(KEY128).encrypt_block(PT, transient_fault=(16, 1))
