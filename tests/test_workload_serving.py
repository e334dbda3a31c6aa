"""Tenant serving: organic blocks fetch tables, read ciphertexts stay computed.

An organic tenant request's ciphertext is read by nothing, so
``_Tenant._serve`` makes only the table fetches an encryption makes
(``CipherVictim.fetch_tables``).  The differential tests run whole
scenario attacks with that serve and with the full-encryption reference
in ``tests/workload_reference.py`` and require every simulated outcome
to match.  Paths whose ciphertexts are read (``probe_target``,
``encrypt``, ``encrypt_batch``) must still run the cipher on the table
as it sits in memory, faults included.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.attack.orchestrator import AttackOrchestrator
from repro.attack.registry import get_modality
from repro.attack.templating import TemplatorConfig
from repro.ciphers.aes import AES
from repro.ciphers.aes_ttable import AesTTable
from repro.ciphers.batch import aes128_encrypt_batch, random_plaintexts
from repro.ciphers.present import Present
from repro.ciphers.table_memory import CipherVictim
from repro.core import Machine, MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.units import MIB
from repro.workload import (
    PRESET_NAMES,
    Scenario,
    TenantSpec,
    WorkloadEngine,
    scenario_preset,
)
from repro.workload.engine import _Tenant
from tests.workload_reference import reference_serve

#: Every tenant knob the serve path branches on: a PRESENT, a T-table and
#: AES-192/256 background, multi-block payloads, bursts, a sleeper and a
#: tenant without scratch churn.
MIXED_SCENARIO = json.dumps({
    "name": "serving-mix",
    "target": "tgt",
    "tenants": [
        {"name": "tgt", "cipher": "aes", "request_rate_hz": 40.0, "cpu": 0,
         "payload_blocks": 3},
        {"name": "pres", "cipher": "present", "request_rate_hz": 30.0, "cpu": 0,
         "burst": 2, "payload_blocks": 3},
        {"name": "tt", "cipher": "aes_ttable", "request_rate_hz": 25.0, "cpu": 0,
         "payload_blocks": 3, "scratch_pages": 0},
        {"name": "a192", "cipher": "aes", "key_bits": 192, "request_rate_hz": 20.0,
         "cpu": 1, "sleeps": True},
        {"name": "a256", "cipher": "aes", "key_bits": 256, "request_rate_hz": 15.0,
         "burst": 2, "scratch_pages": 0},
    ],
})

SCENARIOS = {name: scenario_preset(name) for name in PRESET_NAMES}
SCENARIOS["json-mix"] = Scenario.from_json(MIXED_SCENARIO)


def run_scenario_attack(scenario, modality="explframe"):
    """One orchestrated attack on a small vulnerable machine; every outcome."""
    machine = Machine(
        MachineConfig(
            seed=7,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
        )
    )
    engine = WorkloadEngine(machine, scenario)
    engine.start()
    attack_cls = get_modality(modality)
    attack = attack_cls(
        machine,
        config=attack_cls.config_class(
            templator=TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
        ),
        tenant_workload=engine,
    )
    report = AttackOrchestrator(attack).run()
    return {
        "clock_ns": machine.clock.now_ns,
        "cache": (machine.cache.hits, machine.cache.misses, machine.cache.evictions),
        # Tags and LRU stamps: the order of a block's table fetches shows
        # here even where no later hit or miss depends on it.
        "cache_lines": hashlib.sha256(
            machine.cache._tags.tobytes() + machine.cache._stamps.tobytes()
        ).hexdigest(),
        "dram": machine.controller.stats(),
        "flip_log": [dataclasses.astuple(event) for event in machine.controller.flip_log],
        "summary": engine.summary(),
        "metrics": machine.obs.metrics.snapshot(),
        "report": report.to_json(),
    }


def assert_same_outcomes(fetched, reference):
    assert fetched["report"] == reference["report"]
    for key in ("clock_ns", "cache", "cache_lines", "dram", "flip_log", "summary", "metrics"):
        assert fetched[key] == reference[key], f"{key} differs from the reference serve"


class TestServingMatchesFullEncryption:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_attack_is_unchanged(self, name, monkeypatch):
        fetched = run_scenario_attack(SCENARIOS[name])
        monkeypatch.setattr(_Tenant, "_serve", reference_serve)
        reference = run_scenario_attack(SCENARIOS[name])
        assert fetched["summary"][SCENARIOS[name].target]["served"] > 0
        assert_same_outcomes(fetched, reference)

    def test_probes_interleaved_with_serving_are_unchanged(self, monkeypatch):
        fetched = run_scenario_attack(scenario_preset("duet"), modality="faultprobe")
        monkeypatch.setattr(_Tenant, "_serve", reference_serve)
        reference = run_scenario_attack(scenario_preset("duet"), modality="faultprobe")
        assert_same_outcomes(fetched, reference)

    @pytest.mark.parametrize("cipher", CipherVictim.CIPHERS)
    def test_fetch_tables_reads_what_encrypt_reads(self, small_machine, cipher):
        kernel = small_machine.kernel
        key = bytes(10 if cipher == "present" else 16)
        victim = CipherVictim(kernel, key, cpu=0, cipher=cipher)
        victim.allocate_table_page()
        reads = []
        mem_read = kernel.mem_read

        def recording(pid, va, size):
            reads.append((pid, va, size))
            return mem_read(pid, va, size)

        kernel.mem_read = recording
        victim.encrypt(bytes(8 if cipher == "present" else 16))
        encrypted, reads[:] = list(reads), []
        victim.fetch_tables()
        assert reads == encrypted
        assert len(encrypted) == (2 if cipher == "aes_ttable" else 1)
        assert victim.encryptions == 2


class TestReadCiphertextsSeeTheFault:
    """Only organic serving skips the rounds; every read ciphertext is computed."""

    @pytest.fixture
    def faulted(self, small_machine):
        def build(cipher):
            scenario = Scenario(
                name="probe",
                target="tgt",
                tenants=(TenantSpec(name="tgt", cipher=cipher, cpu=0),),
            )
            engine = WorkloadEngine(small_machine, scenario)
            engine.start()
            kernel = small_machine.kernel
            key = bytes(range(10 if cipher == "present" else 16))
            victim = CipherVictim(kernel, key, cpu=0, cipher=cipher)
            victim.allocate_table_page()
            engine.attach_target(victim)
            pa = kernel.resolve_pa(victim.pid, victim.sbox.va + 0x3)
            kernel.controller.memory.flip_bit(pa, 1)
            faulty = victim.sbox.read()
            assert victim.table_is_faulty()
            return engine, victim, key, faulty

        return build

    @pytest.mark.parametrize("cipher", ("aes", "aes_ttable"))
    def test_aes_paths_compute_with_the_faulty_sbox(self, faulted, cipher):
        engine, victim, key, faulty = faulted(cipher)
        if cipher == "aes":
            expected = AES(key, sbox_provider=lambda: faulty)
        else:
            expected = AesTTable(key, sbox_provider=lambda: faulty)
        plaintexts = [bytes([i]) * 16 for i in range(32)]
        want = [expected.encrypt_block(p) for p in plaintexts]
        assert want != [AES(key).encrypt_block(p) for p in plaintexts]
        assert [engine.probe_target(p) for p in plaintexts] == want
        assert [victim.encrypt(p) for p in plaintexts] == want
        cts = victim.encrypt_batch(64, np.random.default_rng(5))
        pts = random_plaintexts(64, np.random.default_rng(5))
        assert [bytes(ct) for ct in cts] == [expected.encrypt_block(bytes(p)) for p in pts]
        assert not np.array_equal(cts, aes128_encrypt_batch(pts, key))

    def test_present_paths_compute_with_the_faulty_sbox(self, faulted):
        engine, victim, key, faulty = faulted("present")
        expected = Present(key, sbox_provider=lambda: faulty)
        plaintexts = [bytes([i]) * 8 for i in range(32)]
        want = [expected.encrypt_block(p) for p in plaintexts]
        assert want != [Present(key).encrypt_block(p) for p in plaintexts]
        assert [engine.probe_target(p) for p in plaintexts] == want
        assert [victim.encrypt(p) for p in plaintexts] == want
