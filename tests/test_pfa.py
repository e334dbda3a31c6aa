"""Persistent Fault Analysis: statistics, recovery, schedule inversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ciphers.aes import expand_key
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.batch import aes128_encrypt_batch, random_plaintexts
from repro.ciphers.faults import FaultSpec, apply_fault
from repro.pfa.pfa import (
    PfaState,
    _invert_key_schedule_128,
    ciphertexts_to_unique_key,
    expected_remaining_candidates,
    invert_key_schedule_128,
    recover_k10_known_fault,
    recover_k10_known_faults,
    refine_with_doubled_values,
    saturated_for_faults,
)
from repro.sim.errors import FaultError
from tests.pfa_reference import (
    ReferencePfaState,
    reference_invert_key_schedule_128,
    reference_recover_k10_known_fault,
)

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SPEC = FaultSpec(index=0x42, bit=3)
FAULTY_SBOX = apply_fault(AES_SBOX, SPEC)
V_STAR = AES_SBOX[0x42]


def faulty_batch(n, rng):
    return aes128_encrypt_batch(random_plaintexts(n, rng), KEY, FAULTY_SBOX)


@pytest.fixture(scope="module")
def saturated_state():
    rng = np.random.default_rng(7)
    state = PfaState()
    state.update(faulty_batch(6000, rng))
    return state


class TestPfaState:
    def test_counts_accumulate(self):
        state = PfaState()
        state.update([bytes(16), bytes(16)])
        assert state.total == 2
        assert state.counts[0][0] == 2

    def test_update_empty_list(self):
        state = PfaState()
        state.update([])
        assert state.total == 0

    def test_bad_shape(self):
        with pytest.raises(FaultError):
            PfaState().update(np.zeros((3, 8), dtype=np.uint8))

    def test_missing_values_shrink(self):
        rng = np.random.default_rng(1)
        state = PfaState()
        state.update(faulty_batch(100, rng))
        early = len(state.missing_values(0))
        state.update(faulty_batch(3000, rng))
        assert len(state.missing_values(0)) < early

    def test_structurally_missing_value_never_appears(self, saturated_state):
        k10 = expand_key(KEY)[10]
        for position in range(16):
            assert (V_STAR ^ k10[position]) in saturated_state.missing_values(position)

    def test_unique_after_enough_data(self, saturated_state):
        assert saturated_state.is_unique()
        assert saturated_state.log2_keyspace() == 0.0

    def test_keyspace_full_when_empty(self):
        assert PfaState().log2_keyspace() == 128.0

    def test_doubled_value_is_most_frequent(self, saturated_state):
        k10 = expand_key(KEY)[10]
        v_prime = FAULTY_SBOX[0x42]
        hits = sum(
            saturated_state.most_frequent(position) == (v_prime ^ k10[position])
            for position in range(16)
        )
        assert hits >= 12  # statistics, not exact at 6000 samples


@st.composite
def ciphertext_batches(draw):
    """Batches over an alphabet missing ``excluded`` values per position.

    With ``cover`` one batch holds every allowed value at every position,
    so the missing sets shrink to exactly the excluded values (unique when
    one is excluded); without it they are whatever the random rows leave.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    excluded = draw(st.integers(0, 3))
    allowed = [rng.permutation(256)[excluded:] for _ in range(16)]
    batches = []
    for rows in draw(st.lists(st.integers(0, 400), min_size=1, max_size=4)):
        columns = [column[rng.integers(0, len(column), rows)] for column in allowed]
        batch = np.stack(columns, axis=1).astype(np.uint8).reshape(rows, 16)
        batches.append(batch if draw(st.booleans()) else [bytes(row) for row in batch])
    if draw(st.booleans()):
        width = 256 - excluded
        batches.append(np.stack(
            [rng.permutation(column) for column in allowed], axis=1
        ).astype(np.uint8).reshape(width, 16))
    return batches


class TestVectorisedMatchesPerPositionLoops:
    """One bincount and one missing mask equal the per-position loops."""

    @settings(max_examples=60, deadline=None)
    @given(batches=ciphertext_batches(), v_star=st.integers(0, 255))
    def test_counts_missing_sets_and_keys_agree(self, batches, v_star):
        state, reference = PfaState(), ReferencePfaState()
        for batch in batches:
            state.update(batch)
            reference.update(batch)
            assert np.array_equal(state.counts, reference.counts)
            assert state.total == reference.total
            for position in range(16):
                assert state.missing_values(position) == reference.missing_values(position)
            assert state.candidates_per_position() == reference.candidates_per_position()
            assert state.log2_keyspace() == reference.log2_keyspace()
            assert state.is_unique() == reference.is_unique()
            assert recover_k10_known_fault(state, v_star) == [
                [missing ^ v_star for missing in reference.missing_values(position)]
                for position in range(16)
            ]
            remaining = reference.candidates_per_position()[0]
            assert saturated_for_faults(state, max(1, remaining)) == all(
                len(reference.missing_values(p)) == max(1, remaining)
                for p in range(16)
            )


@st.composite
def count_matrices(draw):
    """(16, 256) counts with one zero per row, except drawn rows that hold
    none, a few or many (up to all 256), and an optional zero moved from
    one row to another (sixteen zeros, not one per row)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(1, 40, size=(16, 256), dtype=np.int64)
    zeros = [1] * 16
    changes = st.tuples(st.integers(0, 15), st.one_of(st.integers(0, 3), st.integers(0, 256)))
    for row, n in draw(st.lists(changes, max_size=16)):
        zeros[row] = n
    move = draw(st.none() | st.tuples(st.integers(0, 15), st.integers(0, 15)))
    if move is not None and zeros[move[0]] > 0 and zeros[move[1]] < 256:
        zeros[move[0]] -= 1
        zeros[move[1]] += 1
    for row, n in enumerate(zeros):
        counts[row, rng.choice(256, n, replace=False)] = 0
    return counts


def check_against_per_position_copies(counts, v_star):
    """The stop test, key recovery and inversion agree with the references."""
    state, reference = PfaState(), ReferencePfaState()
    state.counts, reference.counts = counts, counts.copy()
    assert state.is_unique() == reference.is_unique()
    candidates = recover_k10_known_fault(state, v_star)
    assert candidates == reference_recover_k10_known_fault(reference, v_star)
    if reference.is_unique():
        k10 = bytes(values[0] for values in candidates)
        assert invert_key_schedule_128(k10) == reference_invert_key_schedule_128(k10)


class TestVectorPathsMatchReferenceCopies:
    """``is_unique``'s zero-count prefilter, one-``nonzero`` key recovery and
    the memoised inversion against the per-position formulations."""

    @settings(max_examples=80, deadline=None)
    @given(counts=count_matrices(), v_star=st.integers(0, 255))
    def test_agree(self, counts, v_star):
        check_against_per_position_copies(counts, v_star)

    @pytest.mark.nightly
    @settings(max_examples=800, deadline=None)
    @given(counts=count_matrices(), v_star=st.integers(0, 255))
    def test_agree_wide(self, counts, v_star):
        check_against_per_position_copies(counts, v_star)

    def test_sixteen_zeros_not_one_per_row(self):
        # Sixteen zeros in all passes the prefilter; the row test rejects.
        counts = np.ones((16, 256), dtype=np.int64)
        counts[np.arange(2, 16), 7] = 0
        counts[0, [3, 9]] = 0  # row 0 two zeros, row 1 none
        check_against_per_position_copies(counts, 0x5A)
        state = PfaState()
        state.counts = counts
        assert np.count_nonzero(counts == 0) == 16 and not state.is_unique()


class TestExpectedCurve:
    def test_starts_at_256(self):
        assert expected_remaining_candidates(0) == 256.0

    def test_monotone_decreasing(self):
        values = [expected_remaining_candidates(n) for n in (0, 100, 500, 2000, 5000)]
        assert values == sorted(values, reverse=True)

    def test_limits_to_one(self):
        assert abs(expected_remaining_candidates(50_000) - 1.0) < 1e-6

    def test_negative_rejected(self):
        with pytest.raises(FaultError):
            expected_remaining_candidates(-1)


class TestKnownFaultRecovery:
    def test_recovers_k10(self, saturated_state):
        candidates = recover_k10_known_fault(saturated_state, V_STAR)
        assert [c[0] for c in candidates] == list(expand_key(KEY)[10])

    def test_v_star_range(self, saturated_state):
        with pytest.raises(FaultError):
            recover_k10_known_fault(saturated_state, 256)

    def test_ciphertexts_to_unique(self):
        rng = np.random.default_rng(3)
        consumed, state = ciphertexts_to_unique_key(lambda n: faulty_batch(n, rng))
        # Zhang et al. report ~2000-2600 on average for t=1.
        assert 1000 < consumed < 6000
        assert state.is_unique()

    def test_ciphertexts_to_unique_limit(self):
        """An unfaulted cipher never saturates — the limit must trip."""
        rng = np.random.default_rng(3)

        def clean_batch(n):
            return aes128_encrypt_batch(random_plaintexts(n, rng), KEY)

        with pytest.raises(FaultError):
            ciphertexts_to_unique_key(clean_batch, limit=3000)


class TestMultiFaultRecovery:
    """t = 2 faults: the ECC-bypass (two flips per word) analysis case."""

    @pytest.fixture(scope="class")
    def double_fault_state(self):
        faulty = apply_fault(apply_fault(AES_SBOX, FaultSpec(0x42, 3)), FaultSpec(0x43, 1))
        rng = np.random.default_rng(2)
        state = PfaState()
        state.update(
            aes128_encrypt_batch(random_plaintexts(8000, rng), KEY, faulty)
        )
        return state, faulty

    def test_saturates_to_two_missing(self, double_fault_state):
        state, _ = double_fault_state
        assert saturated_for_faults(state, 2)
        assert not state.is_unique()  # t=1 criterion never fires

    def test_missing_sets_leave_pairwise_degeneracy(self, double_fault_state):
        state, _ = double_fault_state
        v_stars = [AES_SBOX[0x42], AES_SBOX[0x43]]
        candidates = recover_k10_known_faults(state, v_stars)
        k10 = expand_key(KEY)[10]
        for position in range(16):
            assert len(candidates[position]) == 2
            assert k10[position] in candidates[position]

    def test_doubled_values_break_the_degeneracy(self, double_fault_state):
        state, faulty = double_fault_state
        v_stars = [AES_SBOX[0x42], AES_SBOX[0x43]]
        v_primes = [faulty[0x42], faulty[0x43]]
        candidates = recover_k10_known_faults(state, v_stars)
        refined = refine_with_doubled_values(state, candidates, v_primes)
        assert bytes(c[0] for c in refined) == expand_key(KEY)[10]
        assert all(len(c) == 1 for c in refined)

    def test_single_fault_reduces_to_t1(self, saturated_state):
        candidates = recover_k10_known_faults(saturated_state, [V_STAR])
        assert [c[0] for c in candidates] == list(expand_key(KEY)[10])

    def test_validation(self, saturated_state):
        with pytest.raises(FaultError):
            recover_k10_known_faults(saturated_state, [])
        with pytest.raises(FaultError):
            recover_k10_known_faults(saturated_state, [300])
        with pytest.raises(FaultError):
            saturated_for_faults(saturated_state, 0)
        with pytest.raises(FaultError):
            refine_with_doubled_values(saturated_state, [[0]] * 16, [])

    def test_refinement_returns_subset(self, saturated_state):
        """Refinement only ever narrows the candidate sets."""
        candidates = recover_k10_known_faults(saturated_state, [V_STAR])
        refined = refine_with_doubled_values(saturated_state, candidates, [0x00])
        for position in range(16):
            assert refined[position]
            assert set(refined[position]) <= set(candidates[position])


class TestScheduleInversion:
    def test_known_key(self):
        assert invert_key_schedule_128(expand_key(KEY)[10]) == KEY

    @given(key=st.binary(min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, key):
        assert invert_key_schedule_128(expand_key(key)[10]) == key

    def test_length_validated(self):
        with pytest.raises(FaultError):
            invert_key_schedule_128(bytes(8))

    @given(k10=st.binary(min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_memo_matches_reference(self, k10):
        expected = reference_invert_key_schedule_128(k10)
        assert invert_key_schedule_128(k10) == expected
        assert invert_key_schedule_128(bytearray(k10)) == expected  # a hit

    def test_bad_length_makes_no_entry(self):
        before = _invert_key_schedule_128.cache_info()
        for length in (0, 15, 17):
            with pytest.raises(FaultError, match="round key must be 16 bytes"):
                invert_key_schedule_128(bytes(length))
        after = _invert_key_schedule_128.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)
        assert after.maxsize is not None
