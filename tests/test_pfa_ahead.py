"""PFA batches encrypted ahead, against the per-batch loop.

``ExplFrameAttack.run_pfa`` draws and encrypts a block of batches at once
(``CipherVictim.encrypt_batches``) and stop-tests them one at a time.
Each case runs on twin machines: one through ``run_pfa``, one through the
per-batch oracle ``tests.pfa_reference.reference_run_pfa``.  Both must
return the same (key, consumed) and leave the same plaintext stream
state, victim encryption count, clock, CPU-cache counters, controller
stats and flip log.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.attack import explframe
from repro.attack.explframe import (
    PFA_BATCH,
    PFA_FIRST_BLOCK,
    PFA_LIMIT,
    ExplFrameAttack,
    ExplFrameConfig,
)
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.aes_ttable import AES_TE_TABLES
from repro.ciphers.table_memory import CipherVictim
from repro.core import Machine, MachineConfig
from repro.dram.cache import CpuCacheConfig
from tests.pfa_reference import reference_encrypt_batch, reference_run_pfa

CIPHERS = ("aes", "aes_ttable")
#: The S-box entry every case faults (bit 0 flipped), so v* is its clean value.
FAULT_INDEX = 0x42
V_STAR = AES_SBOX[FAULT_INDEX]
#: Machine seeds whose plaintext streams make the one-fault table's key
#: unique after 7 batches (inside the first block), per cipher, and after
#: 9 (later) for both.
SEED_STOP_IN_FIRST_BLOCK = {"aes": 18, "aes_ttable": 4}
SEED_STOP_LATER = 0
#: One line in one way: every table fetch misses, so each fetch reaches
#: the controller and runs the events due on its "dram" queue.
TINY_CACHE = CpuCacheConfig(sets=1, ways=1)


def twin(cipher, seed, cache=None):
    config = MachineConfig.small(seed)
    if cache is not None:
        config = replace(config, cache=cache)
    attack = ExplFrameAttack(Machine(config), config=ExplFrameConfig(cipher=cipher))
    victim = CipherVictim(attack.kernel, attack.true_key, cpu=0, cipher=cipher)
    victim.allocate_table_page()
    return attack, victim


def table_pa(victim, offset, te=False):
    base = victim._te_va if te else victim.sbox.va
    return victim.kernel.resolve_pa(victim.pid, base + offset)


def one_fault(attack, victim):
    attack.kernel.controller.memory.flip_bit(table_pa(victim, FAULT_INDEX), 0)


def two_faults(attack, victim):
    """Two entries faulted: two values stay missing, so no key is ever unique."""
    one_fault(attack, victim)
    attack.kernel.controller.memory.flip_bit(table_pa(victim, 0x10), 0)
    assert len(set(range(256)) - set(victim.sbox.read())) == 2


def observe(attack, victim):
    machine = attack.machine
    return {
        "stream": machine.rng.numpy_stream("attack.plaintexts").bit_generator.state,
        "encryptions": victim.encryptions,
        "clock_ns": machine.clock.now_ns,
        "cache": (machine.cache.hits, machine.cache.misses, machine.cache.evictions),
        "controller": machine.controller.stats(),
        "flip_log": list(machine.controller.flip_log),
    }


def run_twins(cipher, seed, prepare, limits, cache=None):
    """PFA attempts at ``limits`` in turn on twins; returns run_pfa's results."""
    sides = []
    for run in (ExplFrameAttack.run_pfa, reference_run_pfa):
        attack, victim = twin(cipher, seed, cache)
        prepare(attack, victim)
        sides.append(
            [
                (run(attack, victim, V_STAR, limit), observe(attack, victim))
                for limit in limits
            ]
        )
    ahead, oracle = sides
    for (result, state), (oracle_result, oracle_state) in zip(ahead, oracle):
        assert result == oracle_result
        assert state == oracle_state
    return [result for result, _ in ahead]


@pytest.mark.parametrize("cipher", CIPHERS)
class TestAgainstPerBatchLoop:
    def test_stop_in_first_block(self, cipher):
        ((key, consumed),) = run_twins(
            cipher, SEED_STOP_IN_FIRST_BLOCK[cipher], one_fault, [PFA_LIMIT]
        )
        assert key is not None
        assert consumed == 7 * PFA_BATCH < PFA_FIRST_BLOCK * PFA_BATCH

    def test_stop_in_later_block(self, cipher):
        ((key, consumed),) = run_twins(cipher, SEED_STOP_LATER, one_fault, [PFA_LIMIT])
        assert key is not None
        assert consumed == 9 * PFA_BATCH

    @pytest.mark.parametrize(
        "limit, consumed", [(1000, 4 * PFA_BATCH), (2100, 9 * PFA_BATCH)]
    )
    def test_limit_not_a_multiple_of_the_batch(self, cipher, limit, consumed):
        # 1,000 clips the first block to four batches; 2,100 takes the
        # whole first block and one more batch, which passes the limit.
        ((_, total),) = run_twins(cipher, SEED_STOP_LATER, one_fault, [limit])
        assert total == consumed

    def test_non_converging_table_then_retry(self, cipher):
        # The retry's doubled budget reads on from where the first attempt
        # left the memoised plaintext stream.
        results = run_twins(
            cipher, SEED_STOP_LATER, two_faults, [PFA_LIMIT, 2 * PFA_LIMIT]
        )
        assert results == [(None, 79 * PFA_BATCH), (None, 157 * PFA_BATCH)]

    @pytest.mark.parametrize("first, later", [(3, 2), (5, 4), (1, 1)])
    def test_any_block_schedule(self, cipher, first, later, monkeypatch):
        monkeypatch.setattr(explframe, "PFA_FIRST_BLOCK", first)
        monkeypatch.setattr(explframe, "PFA_LATER_BLOCK", later)
        for seed in (SEED_STOP_IN_FIRST_BLOCK[cipher], SEED_STOP_LATER):
            ((key, _),) = run_twins(cipher, seed, one_fault, [PFA_LIMIT])
            assert key is not None


def fetch_times(cipher, seed, prepare, limit):
    """The clock after each S-box fetch of a per-batch run on a tiny cache."""
    attack, victim = twin(cipher, seed, TINY_CACHE)
    prepare(attack, victim)
    times = []
    read = victim.sbox.read

    def timed_read():
        data = read()
        times.append(attack.machine.clock.now_ns)
        return data

    victim.sbox.read = timed_read
    reference_run_pfa(attack, victim, V_STAR, limit)
    return times


class TestTableChangesMidPfa:
    """A machine event rewrites a table byte between two batch fetches of
    the first block, after the block was encrypted under the old bytes."""

    def rewrite_after_fetch(self, cipher, fetch, offset, value, te=False):
        """A prepare step: one fault, then a rewrite due after ``fetch``."""
        due = fetch_times(cipher, SEED_STOP_LATER, one_fault, PFA_LIMIT)[fetch] + 1
        fired = []

        def prepare(attack, victim):
            one_fault(attack, victim)
            pa = table_pa(victim, offset, te)
            memory = attack.kernel.controller.memory

            def rewrite(now_ns):
                memory.write(pa, bytes([value]))
                fired.append(now_ns)

            attack.machine.events.schedule("test.table-rewrite", due, rewrite, queue="dram")

        return prepare, fired

    @pytest.mark.parametrize("cipher", CIPHERS)
    def test_sbox_byte(self, cipher):
        # The faulty entry takes another faulty value: v* stays missing,
        # the doubled value moves, and the key is still recovered.
        prepare, fired = self.rewrite_after_fetch(
            cipher, 2, FAULT_INDEX, V_STAR ^ 0b10
        )
        ((key, consumed),) = run_twins(
            cipher, SEED_STOP_LATER, prepare, [PFA_LIMIT], cache=TINY_CACHE
        )
        assert len(fired) == 2  # once on each twin
        assert key is not None
        assert consumed > 3 * PFA_BATCH

    def test_te_byte(self):
        # From the fifth batch on, the faulty Te block sends every batch of
        # the T-table victim to the scalar implementation.
        prepare, fired = self.rewrite_after_fetch(
            "aes_ttable", 3, 4, AES_TE_TABLES[4] ^ 0b10, te=True
        )
        ((_, consumed),) = run_twins(
            "aes_ttable", SEED_STOP_LATER, prepare, [6 * PFA_BATCH], cache=TINY_CACHE
        )
        assert len(fired) == 2
        assert consumed == 6 * PFA_BATCH


@pytest.mark.parametrize("cipher", CIPHERS)
@pytest.mark.parametrize("taken", [0, 1, 3, 5])
def test_encrypt_batches_taken_in_part(cipher, taken):
    """Closing the generator after ``taken`` of 5 batches equals ``taken``
    one-batch calls, and an untaken batch has no effect."""
    sides = []
    for ahead in (True, False):
        attack, victim = twin(cipher, SEED_STOP_LATER)
        one_fault(attack, victim)
        rng = np.random.default_rng(11)
        if ahead:
            batches = victim.encrypt_batches(5, 100, rng)
            out = [next(batches) for _ in range(taken)]
            batches.close()
        else:
            out = [reference_encrypt_batch(victim, 100, rng) for _ in range(taken)]
        sides.append((out, rng.bit_generator.state, observe(attack, victim)))
    (ahead_out, *ahead_rest), (oracle_out, *oracle_rest) = sides
    assert len(ahead_out) == len(oracle_out) == taken
    assert all(np.array_equal(a, b) for a, b in zip(ahead_out, oracle_out))
    assert ahead_rest == oracle_rest
