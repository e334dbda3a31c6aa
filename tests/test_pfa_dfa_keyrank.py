"""DFA baseline and key-rank utilities."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ciphers.aes import AES, expand_key
from repro.pfa.dfa import (
    collect_dfa_pairs,
    giraud_dfa,
    output_position_of_state_byte,
    pairs_needed_for_unique,
)
from repro.pfa.keyrank import KeyCandidates
from repro.sim.errors import FaultError

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


class TestDfaPairs:
    def test_pair_differs_in_one_byte(self):
        aes = AES(KEY)
        ((clean, faulty),) = collect_dfa_pairs(aes, [bytes(16)], 0, 0)
        assert sum(a != b for a, b in zip(clean, faulty)) == 1

    def test_fault_lands_at_shiftrows_position(self):
        aes = AES(KEY)
        state_position = 5
        out = output_position_of_state_byte(state_position)
        ((clean, faulty),) = collect_dfa_pairs(aes, [bytes(16)], state_position, 0)
        differing = [i for i in range(16) if clean[i] != faulty[i]]
        assert differing == [out]

    def test_bit_validated(self):
        with pytest.raises(FaultError):
            collect_dfa_pairs(AES(KEY), [bytes(16)], 0, 9)

    def test_position_mapping_is_bijection(self):
        outs = {output_position_of_state_byte(i) for i in range(16)}
        assert outs == set(range(16))


class TestGiraud:
    def test_true_key_always_survives(self):
        aes = AES(KEY)
        k10 = expand_key(KEY)[10]
        pairs = collect_dfa_pairs(aes, [bytes([7]) * 16], 0, 2)
        candidates = giraud_dfa(pairs)
        out = output_position_of_state_byte(0)
        assert k10[out] in candidates[out]

    def test_candidates_narrow_with_more_pairs(self):
        aes = AES(KEY)
        plaintexts = [bytes([i]) * 16 for i in range(6)]
        one = giraud_dfa(collect_dfa_pairs(aes, plaintexts[:1], 0, 1))
        many = giraud_dfa(collect_dfa_pairs(aes, plaintexts, 0, 1))
        out = output_position_of_state_byte(0)
        assert len(many[out]) <= len(one[out])

    def test_full_key_recovered(self):
        aes = AES(KEY)
        import random

        rng = random.Random(0)
        settled = pairs_needed_for_unique(
            aes, lambda i: bytes(rng.randrange(256) for _ in range(16)), max_pairs=160
        )
        assert len(settled) == 16

    def test_empty_pairs_rejected(self):
        with pytest.raises(FaultError):
            giraud_dfa([])

    def test_bad_ciphertext_length(self):
        with pytest.raises(FaultError):
            giraud_dfa([(bytes(8), bytes(8))])


class TestKeyCandidates:
    def test_keyspace_product(self):
        per_byte = [[0]] * 15 + [[1, 2, 3, 4]]
        candidates = KeyCandidates(per_byte)
        assert candidates.keyspace == 4
        assert candidates.log2_keyspace == 2.0

    def test_unique_key(self):
        per_byte = [[i] for i in range(16)]
        assert KeyCandidates(per_byte).unique_key() == bytes(range(16))

    def test_unique_raises_when_ambiguous(self):
        per_byte = [[0, 1]] + [[0]] * 15
        with pytest.raises(FaultError):
            KeyCandidates(per_byte).unique_key()

    def test_empty_position_rejected(self):
        with pytest.raises(FaultError):
            KeyCandidates([[0]] * 15 + [[]])

    def test_wrong_length_rejected(self):
        with pytest.raises(FaultError):
            KeyCandidates([[0]] * 8)

    def test_value_range_validated(self):
        with pytest.raises(FaultError):
            KeyCandidates([[256]] + [[0]] * 15)

    def test_candidates_deduplicated(self):
        candidates = KeyCandidates([[5, 5, 5]] + [[0]] * 15)
        assert candidates.keyspace == 1

    @given(sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=16, max_size=16))
    @settings(max_examples=20)
    def test_log2_keyspace_matches_product(self, sizes):
        per_byte = [list(range(size)) for size in sizes]
        import math

        expected = sum(math.log2(size) for size in sizes)
        assert abs(KeyCandidates(per_byte).log2_keyspace - expected) < 1e-9
