"""Batch AES cross-checks and PRESENT test vectors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ciphers.aes import AES, expand_key, te_tables
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.batch import (
    _pair_gather,
    _round_keys,
    _round_tables,
    aes128_encrypt_batch,
    random_plaintexts,
)
from repro.ciphers.faults import FaultSpec, apply_fault
from repro.ciphers.present import PRESENT_SBOX, Present
from tests.cipher_references import (
    aes128_encrypt_batch_reference,
    te_bytes_reference,
    ttable_encrypt_reference,
)

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

keys16 = st.binary(min_size=16, max_size=16)
# Every PFA batch is 256 blocks; T5 feeds 100, 150, 250 and 500.
batch_sizes = st.one_of(
    st.sampled_from([1, 100, 150, 250, 256, 500, 600]), st.integers(1, 600)
)
sbox_flips = st.lists(
    st.tuples(st.integers(0, 255), st.integers(0, 7)), min_size=0, max_size=3
)


def flipped_sbox(flips: list[tuple[int, int]]) -> bytes:
    """The clean S-box with bit ``bit`` of entry ``index`` flipped, per flip."""
    out = bytearray(AES_SBOX)
    for index, bit in flips:
        out[index] ^= 1 << bit
    return bytes(out)


class TestBatchKernelOracle:
    """The pair-table batch kernel equals the byte-wise kernel and scalar AES."""

    @given(
        count=batch_sizes,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        key=keys16,
        flips=sbox_flips,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bytewise_kernel_and_scalar(self, count, seed, key, flips):
        sbox = flipped_sbox(flips)
        pts = random_plaintexts(count, np.random.default_rng(seed))
        cts = aes128_encrypt_batch(pts, key, sbox)
        assert cts.shape == (count, 16) and cts.dtype == np.uint8
        assert np.array_equal(cts, aes128_encrypt_batch_reference(pts, key, sbox))
        scalar = AES(key, sbox_provider=lambda: sbox)
        for i in range(count):
            assert bytes(cts[i]) == scalar.encrypt_block(bytes(pts[i]))

    @given(
        count=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        key=keys16,
        flips=sbox_flips,
    )
    @settings(max_examples=30, deadline=None)
    def test_list_and_non_contiguous_inputs(self, count, seed, key, flips):
        sbox = flipped_sbox(flips)
        pts = random_plaintexts(count, np.random.default_rng(seed))
        expected = aes128_encrypt_batch_reference(pts, key, sbox)
        strided = np.repeat(pts, 2, axis=1)[:, ::2]  # column stride 2
        every_other = np.repeat(pts, 2, axis=0)[::2]  # row stride 32
        assert not strided.flags["C_CONTIGUOUS"]
        for variant in (
            [bytes(row) for row in pts],
            strided,
            every_other,
            np.asfortranarray(pts),
        ):
            assert np.array_equal(aes128_encrypt_batch(variant, key, sbox), expected)

    @given(key_a=keys16, key_b=keys16)
    @settings(max_examples=30, deadline=None)
    def test_keys_never_share_cached_round_keys(self, key_a, key_b):
        aes128_encrypt_batch(np.zeros((1, 16), dtype=np.uint8), key_a)
        aes128_encrypt_batch(np.zeros((1, 16), dtype=np.uint8), key_b)
        bytes_a, _ = _round_keys(key_a)
        bytes_b, _ = _round_keys(key_b)
        assert bytes_a.tobytes() == b"".join(expand_key(key_a))
        assert bytes_b.tobytes() == b"".join(expand_key(key_b))
        if key_a != key_b:
            assert bytes_a is not bytes_b
            assert not np.shares_memory(bytes_a, bytes_b)

    def test_cached_round_keys_are_read_only(self):
        rk_bytes, rk_words = _round_keys(KEY)
        assert not rk_bytes.flags.writeable and not rk_words.flags.writeable

    @given(flips=sbox_flips)
    @settings(max_examples=10, deadline=None)
    def test_cached_round_tables_are_read_only(self, flips):
        for table in _round_tables(flipped_sbox(flips)):
            assert not table.flags.writeable

    @given(flips=sbox_flips, index=st.integers(0, 255), bit=st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_one_bit_apart_sboxes_never_share_tables(self, flips, index, bit):
        sbox_a = flipped_sbox(flips)
        sbox_b = flipped_sbox([*flips, (index, bit)])
        tables_a = _round_tables(sbox_a)
        tables_b = _round_tables(sbox_b)
        assert tables_a[2].tobytes() == sbox_a and tables_b[2].tobytes() == sbox_b
        for table_a, table_b in zip(tables_a, tables_b):
            assert table_a is not table_b
            assert not np.shares_memory(table_a, table_b)
        # The faulted entry's pairs differ in both tables it feeds.
        t01_a, t23_a, _ = tables_a
        t01_b, t23_b, _ = tables_b
        assert not np.array_equal(t01_a, t01_b) and not np.array_equal(t23_a, t23_b)

    @given(a=st.integers(0, 255), b=st.integers(0, 255), flips=sbox_flips)
    @settings(max_examples=60, deadline=None)
    def test_pair_tables_read_as_native_uint16(self, a, b, flips):
        # The kernel reads a byte pair (a, b) as a native uint16; building
        # the index the same way keeps the check byte-order independent.
        sbox = flipped_sbox(flips)
        index = int(np.array([a, b], dtype=np.uint8).view(np.uint16)[0])
        te0, te1, te2, te3 = te_tables(sbox)
        t01, t23, _ = _round_tables(sbox)
        assert t01.shape == t23.shape == (1 << 16,) and t01.dtype == np.uint32
        assert t01[index : index + 1].tobytes() == (te0[a] ^ te1[b]).to_bytes(4, "big")
        assert t23[index : index + 1].tobytes() == (te2[a] ^ te3[b]).to_bytes(4, "big")

    def test_caches_are_bounded(self):
        # 512 KiB of pair tables per S-box, 128 bytes of gather per block.
        assert _round_tables.cache_info().maxsize == 1
        assert _pair_gather.cache_info().maxsize <= 4
        for count in (1, 100, 150, 250, 256, 500, 600):
            aes128_encrypt_batch(np.zeros((count, 16), dtype=np.uint8), KEY)
        assert _pair_gather.cache_info().currsize <= 4
        assert _pair_gather(256).nbytes == 256 * 16 * np.dtype(np.intp).itemsize
        assert sum(table.nbytes for table in _round_tables(AES_SBOX)[:2]) == 512 * 1024


class TestBatchAES:
    def test_matches_scalar(self):
        rng = np.random.default_rng(0)
        pts = random_plaintexts(32, rng)
        cts = aes128_encrypt_batch(pts, KEY)
        scalar = AES(KEY)
        for i in range(32):
            assert bytes(cts[i]) == scalar.encrypt_block(bytes(pts[i]))

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_matches_scalar_with_faulty_sbox(self, seed):
        rng = np.random.default_rng(seed)
        faulty = apply_fault(AES_SBOX, FaultSpec(index=seed % 256, bit=seed % 8))
        pts = random_plaintexts(4, rng)
        cts = aes128_encrypt_batch(pts, KEY, faulty)
        scalar = AES(KEY, sbox_provider=lambda: faulty)
        for i in range(4):
            assert bytes(cts[i]) == scalar.encrypt_block(bytes(pts[i]))

    @given(inner=sbox_flips, last=sbox_flips, count=st.integers(1, 40), seed=st.integers(0, 999))
    @settings(max_examples=20, deadline=None)
    def test_inner_sbox_splits_the_rounds(self, inner, last, count, seed):
        # Inner rounds from one S-box, the final round from another: the
        # T-table cipher with the Te block of ``inner_sbox``.
        inner_sbox, sbox = flipped_sbox(inner), flipped_sbox(last)
        pts = random_plaintexts(count, np.random.default_rng(seed))
        cts = aes128_encrypt_batch(pts, KEY, sbox, inner_sbox=inner_sbox)
        te_raw = te_bytes_reference(inner_sbox)
        for pt, ct in zip(pts, cts):
            assert bytes(ct) == ttable_encrypt_reference(KEY, bytes(pt), te_raw, sbox)

    def test_accepts_list_of_blocks(self):
        blocks = [bytes(range(16)), bytes(range(16, 32))]
        cts = aes128_encrypt_batch(blocks, KEY)
        assert cts.shape == (2, 16)

    def test_input_not_mutated(self):
        rng = np.random.default_rng(1)
        pts = random_plaintexts(4, rng)
        copy = pts.copy()
        aes128_encrypt_batch(pts, KEY)
        assert np.array_equal(pts, copy)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            aes128_encrypt_batch(np.zeros((4, 8), dtype=np.uint8), KEY)

    def test_key_size_validation(self):
        with pytest.raises(ValueError):
            aes128_encrypt_batch(np.zeros((1, 16), dtype=np.uint8), bytes(24))

    def test_sbox_size_validation(self):
        with pytest.raises(ValueError):
            aes128_encrypt_batch(np.zeros((1, 16), dtype=np.uint8), KEY, sbox=bytes(16))
        with pytest.raises(ValueError):
            aes128_encrypt_batch(
                np.zeros((1, 16), dtype=np.uint8), KEY, inner_sbox=bytes(16)
            )

    def test_random_plaintexts_validation(self):
        with pytest.raises(ValueError):
            random_plaintexts(0, np.random.default_rng(0))


class TestPresentVectors:
    """The four published PRESENT-80 vectors (Bogdanov et al., Table 2)."""

    @pytest.mark.parametrize(
        "key_hex,pt_hex,ct_hex",
        [
            ("00000000000000000000", "0000000000000000", "5579c1387b228445"),
            ("ffffffffffffffffffff", "0000000000000000", "e72c46c0f5945049"),
            ("00000000000000000000", "ffffffffffffffff", "a112ffc72f68417b"),
            ("ffffffffffffffffffff", "ffffffffffffffff", "3333dcd3213210d2"),
        ],
    )
    def test_present80(self, key_hex, pt_hex, ct_hex):
        cipher = Present(bytes.fromhex(key_hex))
        assert cipher.encrypt_block(bytes.fromhex(pt_hex)).hex() == ct_hex

    def test_decrypt_round_trip(self):
        cipher = Present(bytes(range(10)))
        pt = bytes(range(8))
        assert cipher.decrypt_block(cipher.encrypt_block(pt)) == pt

    def test_present128_round_trip(self):
        cipher = Present(bytes(range(16)))
        pt = b"\xde\xad\xbe\xef\x01\x02\x03\x04"
        assert cipher.decrypt_block(cipher.encrypt_block(pt)) == pt


class TestPresentValidation:
    def test_bad_key_size(self):
        with pytest.raises(ValueError):
            Present(bytes(8))

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            Present(bytes(10)).encrypt_block(bytes(4))

    def test_bad_sbox_from_provider(self):
        cipher = Present(bytes(10), sbox_provider=lambda: bytes(4))
        with pytest.raises(ValueError):
            cipher.encrypt_block(bytes(8))

    def test_faulty_sbox_changes_output(self):
        faulty = bytearray(PRESENT_SBOX)
        faulty[0] ^= 0x1
        clean = Present(bytes(10)).encrypt_block(bytes(8))
        corrupted = Present(bytes(10), sbox_provider=lambda: bytes(faulty)).encrypt_block(
            bytes(8)
        )
        assert clean != corrupted

    def test_sbox_is_official(self):
        assert PRESENT_SBOX[0] == 0xC and PRESENT_SBOX[0xF] == 0x2
