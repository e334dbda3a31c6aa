"""End-to-end ExplFrame and the baseline attacks."""

import pytest

from repro.attack.baselines import PagemapAttack, RandomSprayAttack
from repro.attack.explframe import ExplFrameAttack, ExplFrameConfig
from repro.attack.orchestrator import AttackOrchestrator, FailureClass, OrchestratorConfig
from repro.attack.templating import TemplatorConfig
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.table_memory import DEFAULT_TABLE_OFFSET
from repro.core import Machine, MachineConfig
from repro.core.results import FlipTemplate
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.errors import ConfigError
from repro.sim.units import MIB, PAGE_SIZE, SECOND

FAST_TEMPLATOR = TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)


def vulnerable_machine(seed):
    return Machine(
        MachineConfig(
            seed=seed,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
        )
    )


class TestConfig:
    def test_table_must_fit_page(self):
        # The offset is a constant, so the page-fit check is this test.
        for cipher in ("aes", "aes_ttable", "present"):
            table_size = ExplFrameConfig(cipher=cipher).table_size
            assert 0 <= DEFAULT_TABLE_OFFSET <= PAGE_SIZE - table_size


class TestUsableTemplates:
    def make_attack(self, seed=0):
        return ExplFrameAttack(
            vulnerable_machine(seed), config=ExplFrameConfig(templator=FAST_TEMPLATOR)
        )

    def template(self, offset, bit, flips_to_one):
        return FlipTemplate(
            page_va=0x5000_0000,
            page_offset=offset,
            bit=bit,
            flips_to_one=flips_to_one,
            aggressor_vas=(0x6000_0000, 0x6004_0000),
        )

    def test_out_of_table_rejected(self):
        attack = self.make_attack()
        assert attack.usable_templates([self.template(0x100, 0, True)]) == []

    def test_direction_compatibility(self):
        attack = self.make_attack()
        offset = DEFAULT_TABLE_OFFSET  # S-box index 0, value 0x63
        # Bit 0 of 0x63 is 1: only a 1->0 flip is armed there.
        armed = self.template(offset, 0, flips_to_one=False)
        unarmed = self.template(offset, 0, flips_to_one=True)
        assert attack.usable_templates([armed]) == [armed]
        assert attack.usable_templates([unarmed]) == []

    def test_bit_level_check(self):
        attack = self.make_attack()
        offset = DEFAULT_TABLE_OFFSET
        # Bit 2 of 0x63 is 0: only a 0->1 flip is armed.
        assert AES_SBOX[0] >> 2 & 1 == 0
        armed = self.template(offset, 2, flips_to_one=True)
        assert attack.usable_templates([armed]) == [armed]


def orchestrated(attack, config=None):
    return AttackOrchestrator(attack, config).run()


def stage_outcomes(report):
    return [(record.stage, record.outcome) for record in report.timeline]


class TestEndToEnd:
    def test_full_key_recovery(self):
        attack = ExplFrameAttack(
            vulnerable_machine(seed=7),
            config=ExplFrameConfig(templator=FAST_TEMPLATOR),
        )
        report = orchestrated(attack)
        assert report.success
        assert report.recovered_key == report.true_key
        # Every stage succeeds first time: no retry, no second candidate.
        assert stage_outcomes(report) == [
            ("template", "ok"), ("steer", "ok"), ("rehammer", "ok"), ("pfa", "ok"),
        ]
        # Pinned counters of this seed's run; they must not drift.
        assert report.templated_flips == 87
        assert report.faulty_ciphertexts == 2560
        assert report.budget.hammer_rounds == 334_100_000
        assert attack.attacker.syscall_count == 1122

    def test_deterministic_given_seed(self):
        first = orchestrated(ExplFrameAttack(
            vulnerable_machine(seed=11), config=ExplFrameConfig(templator=FAST_TEMPLATOR)
        ))
        second = orchestrated(ExplFrameAttack(
            vulnerable_machine(seed=11), config=ExplFrameConfig(templator=FAST_TEMPLATOR)
        ))
        assert first.to_json() == second.to_json()

    def test_invulnerable_module_defeats_attack(self, invulnerable_machine):
        attack = ExplFrameAttack(
            invulnerable_machine, config=ExplFrameConfig(templator=FAST_TEMPLATOR)
        )
        report = orchestrated(
            attack, OrchestratorConfig(campaign_budget=attack.config.max_campaigns)
        )
        assert report.templated_flips == 0
        assert not report.success
        assert report.recovered_key is None
        assert report.final_failure.failure_class is FailureClass.TEMPLATING_EXHAUSTED

    def test_explicit_key_honoured(self):
        key = bytes(range(16))
        attack = ExplFrameAttack(
            vulnerable_machine(seed=7),
            key=key,
            config=ExplFrameConfig(templator=FAST_TEMPLATOR),
        )
        report = orchestrated(attack)
        assert report.true_key == key.hex()
        if report.success:
            assert report.recovered_key == key.hex()


class TestTTableEndToEnd:
    def test_two_frame_steering_recovers_key(self):
        """T-table victim: the flippy frame must be the SECOND allocation."""
        attack = ExplFrameAttack(
            vulnerable_machine(seed=7),
            config=ExplFrameConfig(
                cipher="aes_ttable", templator=FAST_TEMPLATOR
            ),
        )
        report = orchestrated(attack)
        assert ("steer", "ok") in stage_outcomes(report)
        assert ("rehammer", "ok") in stage_outcomes(report)
        assert report.success
        assert report.recovered_key == report.true_key

    def test_single_frame_staging_would_miss(self):
        """Control: without the sacrificial frame, the Te page absorbs
        the flippy frame and the S-box page gets a different one."""
        from repro.ciphers.table_memory import CipherVictim
        from repro.sim.units import PAGE_SIZE

        machine = vulnerable_machine(seed=3)
        kernel = machine.kernel
        attacker = kernel.spawn("naive", cpu=0)
        va = kernel.sys_mmap(attacker.pid, 8 * PAGE_SIZE)
        for index in range(8):
            kernel.mem_write(attacker.pid, va + index * PAGE_SIZE, b"\xff")
        staged = kernel.pfn_of(attacker.pid, va)
        kernel.sys_munmap(attacker.pid, va, PAGE_SIZE)
        victim = CipherVictim(kernel, bytes(16), cpu=0, cipher="aes_ttable")
        sbox_pfn = victim.allocate_table_page()
        te_pfn = kernel.pfn_of(victim.pid, victim._te_va)
        assert te_pfn == staged  # the first touch consumed it
        assert sbox_pfn != staged


class TestPresentEndToEnd:
    def test_full_chain_recovers_k32(self):
        """PRESENT victim: steer, fault the nibble table, recover K32."""
        machine = Machine(
            MachineConfig(
                seed=9,
                geometry=DRAMGeometry.small(),
                flip_model=FlipModelConfig(
                    weak_cells_per_row_mean=3.0,
                    threshold_mean=150_000,
                    threshold_sd=50_000,
                    threshold_min=40_000,
                ),
            )
        )
        config = ExplFrameConfig(
            cipher="present",
            templator=TemplatorConfig(
                buffer_bytes=8 * MIB, batch_pairs=16
            ),
            max_campaigns=4,
        )
        # Templating over 8 MiB costs ~550 s of simulated time, past the
        # default deadline.
        report = orchestrated(
            ExplFrameAttack(machine, config=config),
            OrchestratorConfig(deadline_ns=3600 * SECOND),
        )
        assert ("steer", "ok") in stage_outcomes(report)
        assert ("rehammer", "ok") in stage_outcomes(report)
        assert report.success
        # The 64-bit last round key; 16 schedule bits remain unsearched.
        assert len(bytes.fromhex(report.recovered_key)) == 8
        # PRESENT's tiny S-box saturates after very few ciphertexts.
        assert report.faulty_ciphertexts < 1000

    def test_present_nibble_bit_filter(self):
        """High-nibble flips do not fault the cipher and must be filtered."""
        machine = vulnerable_machine(0)
        attack = ExplFrameAttack(
            machine,
            config=ExplFrameConfig(
                cipher="present", templator=FAST_TEMPLATOR, max_campaigns=1
            ),
        )
        offset = DEFAULT_TABLE_OFFSET
        high_bit = FlipTemplate(
            page_va=0x5000_0000,
            page_offset=offset,
            bit=6,
            flips_to_one=True,
            aggressor_vas=(0x6000_0000, 0x6004_0000),
        )
        assert attack.usable_templates([high_bit]) == []

    def test_invalid_cipher_rejected(self):
        with pytest.raises(ConfigError):
            ExplFrameConfig(cipher="des")

    def test_max_campaigns_validated(self):
        with pytest.raises(ConfigError):
            ExplFrameConfig(max_campaigns=0)


class TestBaselines:
    def test_random_spray_misses_the_table(self):
        machine = vulnerable_machine(seed=3)
        outcome = RandomSprayAttack(
            machine, key=bytes(16), templator_config=FAST_TEMPLATOR
        ).run()
        # The spray flips bits somewhere, but not in the victim's table.
        assert not outcome.fault_in_table

    def test_pagemap_attack_succeeds(self):
        machine = vulnerable_machine(seed=7)
        outcome = PagemapAttack(
            machine, key=bytes(16), templator_config=FAST_TEMPLATOR
        ).run()
        assert outcome.templated_flips > 0
        assert outcome.fault_in_table
        assert outcome.attempts >= 1

    def test_pagemap_attack_validation(self):
        with pytest.raises(ConfigError):
            PagemapAttack(vulnerable_machine(0), key=bytes(16), max_attempts=0)
