"""Baseline attacks: outcome bookkeeping and privileged mechanics."""

from repro.attack.baselines import BaselineOutcome, PagemapAttack, RandomSprayAttack
from repro.attack.templating import TemplatorConfig
from repro.core import Machine, MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.units import MIB

FAST = TemplatorConfig(buffer_bytes=2 * MIB, batch_pairs=8)


def machine(seed=0, vulnerable=True):
    model = (
        FlipModelConfig.highly_vulnerable()
        if vulnerable
        else FlipModelConfig.invulnerable()
    )
    return Machine(
        MachineConfig(seed=seed, geometry=DRAMGeometry.small(), flip_model=model)
    )


class TestRandomSpray:
    def test_outcome_fields(self):
        outcome = RandomSprayAttack(machine(3), key=bytes(16), templator_config=FAST).run()
        assert isinstance(outcome, BaselineOutcome)
        assert outcome.attempts == 1
        assert outcome.hammer_rounds_total > 0

    def test_invulnerable_module_finds_nothing(self):
        outcome = RandomSprayAttack(
            machine(3, vulnerable=False), key=bytes(16), templator_config=FAST
        ).run()
        assert outcome.templated_flips == 0
        assert not outcome.fault_in_table

    def test_spray_flips_own_memory_not_victims(self):
        outcome = RandomSprayAttack(machine(5), key=bytes(16), templator_config=FAST).run()
        assert outcome.templated_flips > 0
        assert not outcome.fault_in_table


class TestPagemapAttack:
    def test_uses_real_pfns(self):
        """The privileged attacker's pagemap reads disclose true PFNs."""
        from repro.os.capabilities import CapabilitySet
        from repro.sim.units import PAGE_SIZE

        m = machine(7)
        kernel = m.kernel
        admin = kernel.spawn("admin", cpu=0, caps=CapabilitySet.root())
        va = kernel.sys_mmap(admin.pid, PAGE_SIZE)
        kernel.mem_write(admin.pid, va, b"x")
        entry = kernel.pagemap(admin.pid).read(va)
        assert entry.pfn == kernel.pfn_of(admin.pid, va)

    def test_gives_up_without_usable_templates(self):
        outcome = PagemapAttack(
            machine(3, vulnerable=False), key=bytes(16), templator_config=FAST
        ).run()
        assert outcome.templated_flips == 0
        assert outcome.attempts == 0
        assert not outcome.fault_in_table

    def test_attempt_budget_respected(self):
        outcome = PagemapAttack(
            machine(7),
            key=bytes(16),
            templator_config=TemplatorConfig(
                buffer_bytes=4 * MIB, batch_pairs=8
            ),
            max_attempts=2,
        ).run()
        assert outcome.attempts <= 2
