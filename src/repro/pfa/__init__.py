"""Fault analysis: PFA, a DFA baseline, and key-rank accounting.

:mod:`repro.pfa.pfa` implements Persistent Fault Analysis (Zhang et al.,
TCHES 2018), the offline stage the paper's conclusion points to: a single
persistent S-box fault makes one value *impossible* in every ciphertext
byte, and the impossible value reveals the last round key byte-by-byte.

:mod:`repro.pfa.dfa` implements Giraud's single-bit last-round DFA as the
classical baseline — it needs *pairs* of correct/faulty ciphertexts of the
same plaintext and a transient fault, requirements the persistent model
removes.

:mod:`repro.pfa.keyrank` aggregates per-byte candidate sets into key-space
sizes and reads off the key once one candidate is left per byte.
"""

from repro.pfa.dfa import collect_dfa_pairs, giraud_dfa
from repro.pfa.keyrank import KeyCandidates
from repro.pfa.pfa import (
    PfaState,
    expected_remaining_candidates,
    invert_key_schedule_128,
    recover_k10_known_fault,
    recover_k10_known_faults,
    refine_with_doubled_values,
    saturated_for_faults,
)
from repro.pfa.pfa_present import (
    PresentPfaState,
    ciphertexts_to_unique_k32,
    invert_present80_schedule,
    recover_k32_known_fault,
    recover_present80_key,
)

__all__ = [
    "KeyCandidates",
    "PfaState",
    "PresentPfaState",
    "ciphertexts_to_unique_k32",
    "invert_present80_schedule",
    "recover_k32_known_fault",
    "recover_present80_key",
    "collect_dfa_pairs",
    "expected_remaining_candidates",
    "giraud_dfa",
    "invert_key_schedule_128",
    "recover_k10_known_fault",
    "recover_k10_known_faults",
    "refine_with_doubled_values",
    "saturated_for_faults",
]
