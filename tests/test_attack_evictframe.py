"""Eviction-based hammering: derivation, the kernel loop, and the modality.

Covers the evictframe contract from docs/ATTACKS.md layer by layer: a
derived traversal really evicts the aggressor line (``CpuCache.contains``);
``sys_hammer_evict``'s steady-state replay reproduces flips at full
eviction accuracy while an undersized set is the negative control; and
evictframe campaigns keep the engine-independence digest contract.
"""

import pytest

from repro.attack.evictframe import (
    EVICT_PATTERNS,
    EvictFrameAttack,
    EvictFrameConfig,
)
from repro.attack.templating import TemplatorConfig
from repro.core import Machine, MachineConfig
from repro.dram.cache import CpuCacheConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.errors import ConfigError, FaultError
from repro.sim.units import MIB, PAGE_SIZE


def small_machine(seed=7, **kwargs):
    return Machine(
        MachineConfig(
            seed=seed,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
            **kwargs,
        )
    )


def fast_config(**kwargs):
    return EvictFrameConfig(
        templator=TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8),
        **kwargs,
    )


class TestConfig:
    def test_defaults_extend_explframe(self):
        config = EvictFrameConfig()
        assert config.evict_slack == 2
        assert config.evict_pattern == "sequential"
        assert config.cipher == "aes"  # inherited knobs intact

    def test_negative_slack_rejected(self):
        with pytest.raises(ConfigError):
            EvictFrameConfig(evict_slack=-1)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError):
            EvictFrameConfig(evict_pattern="random")

    def test_patterns_constant_matches_validation(self):
        for pattern in EVICT_PATTERNS:
            assert EvictFrameConfig(evict_pattern=pattern).evict_pattern == pattern

    def test_repr_pins_the_eviction_knobs(self):
        # The campaign config hash relies on repr covering every knob.
        text = repr(EvictFrameConfig(evict_slack=3, evict_pattern="interleave"))
        assert "evict_slack=3" in text
        assert "evict_pattern='interleave'" in text


class TestKernelEvictHammer:
    """``sys_hammer_evict`` through a real machine, no attack on top."""

    WAYS = CpuCacheConfig().ways

    @pytest.fixture
    def rig(self):
        machine = small_machine()
        kernel = machine.kernel
        task = kernel.spawn("evictor", cpu=0)
        stride = kernel.cache.config.way_stride
        pages = (self.WAYS + 4) * stride // PAGE_SIZE
        va = kernel.sys_mmap(task.pid, pages * PAGE_SIZE, name="evict-buffer")
        for index in range(pages):
            kernel.mem_write(task.pid, va + index * PAGE_SIZE, b"\xff" * PAGE_SIZE)
        return machine, kernel, task, va, stride

    def test_full_set_evicts_the_aggressor(self, rig):
        machine, kernel, task, va, stride = rig
        members = [va + k * stride for k in range(1, self.WAYS + 3)]
        result = kernel.sys_hammer_evict(task.pid, [va], [members], rounds=64)
        # Steady state: the traversal pushes the aggressor line out every
        # round, so the access reaches DRAM — full eviction accuracy.
        assert result.eviction_accuracy > 0.95
        assert result.activations > 0
        pa = kernel.resolve_pa(task.pid, va)
        assert not kernel.cache.contains(pa)

    def test_undersized_set_is_the_negative_control(self, rig):
        machine, kernel, task, va, stride = rig
        few = [va + k * stride for k in range(1, self.WAYS - 1)]
        result = kernel.sys_hammer_evict(task.pid, [va], [few], rounds=64)
        # Everything fits in the set's ways: after the cold round all
        # accesses hit, nothing reaches DRAM, and the aggressor stays
        # cached — why the original attack needed clflush.
        assert result.eviction_accuracy < 0.05
        assert result.aggressor_misses <= 1
        pa = kernel.resolve_pa(task.pid, va)
        assert kernel.cache.contains(pa)

    def test_interleave_pattern_runs(self, rig):
        machine, kernel, task, va, stride = rig
        aggressors = [va, va + 64]
        members = [
            [va + k * stride for k in range(1, self.WAYS + 3)],
            [va + 64 + k * stride for k in range(1, self.WAYS + 3)],
        ]
        result = kernel.sys_hammer_evict(
            task.pid, aggressors, members, rounds=32, pattern="interleave"
        )
        assert result.eviction_accuracy > 0.9
        assert result.rounds == 32

    def test_wasted_activations_accounted(self, rig):
        machine, kernel, task, va, stride = rig
        members = [va + k * stride for k in range(1, self.WAYS + 3)]
        result = kernel.sys_hammer_evict(task.pid, [va], [members], rounds=64)
        assert result.wasted_activations > 0
        assert result.wasted_activations < result.activations
        assert result.traversal_accesses == 64 * len(members)

    def test_rounds_and_sets_validated(self, rig):
        machine, kernel, task, va, stride = rig
        with pytest.raises(ConfigError):
            kernel.sys_hammer_evict(task.pid, [va], [[]], rounds=0)
        with pytest.raises(ConfigError):
            kernel.sys_hammer_evict(task.pid, [va], [[], []], rounds=8)
        with pytest.raises(ConfigError):
            kernel.sys_hammer_evict(task.pid, [va], [[]], rounds=8, pattern="zigzag")

    def test_unmapped_target_faults(self, rig):
        machine, kernel, task, va, stride = rig
        kernel.sys_munmap(task.pid, va, PAGE_SIZE)
        with pytest.raises(FaultError):
            kernel.sys_hammer_evict(task.pid, [va], [[]], rounds=8)

    def test_cache_counter_extrapolation_is_linear_in_rounds(self):
        """Rounds 3..N replay round 2's steady state — counters scale linearly.

        Three identical machines run 2, 3, and 34 rounds; the per-round
        steady-state delta measured between 2 and 3 must extrapolate
        exactly to 34 (rounds past the live pair are accounted
        analytically, so any drift would be a modelling bug).
        """
        samples = {}
        for rounds in (2, 3, 34):
            machine = small_machine()
            kernel = machine.kernel
            task = kernel.spawn("evictor", cpu=0)
            stride = kernel.cache.config.way_stride
            pages = (self.WAYS + 4) * stride // PAGE_SIZE
            va = kernel.sys_mmap(task.pid, pages * PAGE_SIZE)
            for index in range(pages):
                kernel.mem_write(
                    task.pid, va + index * PAGE_SIZE, b"\xff" * PAGE_SIZE
                )
            members = [va + k * stride for k in range(1, self.WAYS + 3)]
            before = (kernel.cache.hits, kernel.cache.misses)
            result = kernel.sys_hammer_evict(task.pid, [va], [members], rounds)
            samples[rounds] = (
                result,
                kernel.cache.hits - before[0],
                kernel.cache.misses - before[1],
            )
        (two, hits2, misses2) = samples[2]
        (three, hits3, misses3) = samples[3]
        (many, hits34, misses34) = samples[34]
        per_round = (
            three.aggressor_misses - two.aggressor_misses,
            hits3 - hits2,
            misses3 - misses2,
        )
        assert many.aggressor_misses == two.aggressor_misses + 32 * per_round[0]
        assert hits34 == hits2 + 32 * per_round[1]
        assert misses34 == misses2 + 32 * per_round[2]
        # Activations are NOT asserted linear: the steady tail replays
        # through the controller's batched hammer model (row-buffer
        # semantics differ from per-access simulation by design).
        assert many.activations > two.activations


class TestDerivation:
    """Eviction-set derivation through the attack's own (syscall) surface."""

    @pytest.fixture(scope="class")
    def staged(self):
        """A templated, steered candidate whose aggressors all derive.

        Mirrors the orchestrator: derivation may legitimately fail on a
        candidate (too few congruent resident lines inside the buffer),
        in which case the campaign advances to the next template — so
        the fixture does too.
        """
        machine = small_machine()
        attack = EvictFrameAttack(machine, config=fast_config())
        for template in attack.template_until_usable():
            victim, _, _ = attack.stage_and_steer(template)
            if all(
                attack.derive_eviction_set(va, template) is not None
                for va in template.aggressor_vas
            ):
                return machine, attack, template, victim
        pytest.fail("no template with a fully derivable eviction set")

    def test_derive_returns_verified_congruent_members(self, staged):
        machine, attack, template, victim = staged
        aggressor_va = template.aggressor_vas[0]
        members = attack.derive_eviction_set(aggressor_va, template)
        assert members is not None
        target = machine.cache.config.ways + attack.config.evict_slack
        assert len(members) >= target
        kernel = machine.kernel
        pid = attack.attacker.pid
        aggressor_set = machine.cache.set_index(kernel.resolve_pa(pid, aggressor_va))
        congruent = [
            machine.cache.set_index(kernel.resolve_pa(pid, va)) == aggressor_set
            for va in members
        ]
        # The virtual-stride walk is verified by timing, not trusted: at
        # least the associativity's worth must be physically congruent
        # (or the traversal could never have evicted the aggressor).
        assert sum(congruent) >= machine.cache.config.ways

    def test_traversal_evicts_the_aggressor_line(self, staged):
        machine, attack, template, victim = staged
        kernel = machine.kernel
        pid = attack.attacker.pid
        aggressor_va = template.aggressor_vas[0]
        members = attack.derive_eviction_set(aggressor_va, template)
        pa = kernel.resolve_pa(pid, aggressor_va)
        kernel.mem_read(pid, aggressor_va, 1)
        assert kernel.cache.contains(pa)
        for member in members:
            kernel.mem_read(pid, member, 1)
        assert not kernel.cache.contains(pa)

    def test_members_avoid_the_victim_neighbourhood(self, staged):
        machine, attack, template, victim = staged
        members = attack.derive_eviction_set(template.aggressor_vas[0], template)
        guard = 3 * machine.controller.mapping.row_stride()
        anchors = tuple(template.aggressor_vas) + (template.page_va,)
        for member in members:
            assert all(abs(member - anchor) >= guard for anchor in anchors)

    def test_rehammer_without_derived_sets_is_rejected(self, staged):
        machine, attack, template, victim = staged
        attack._eviction_sets = None
        with pytest.raises(ConfigError):
            attack.rehammer(template, victim)


class TestModalityContract:
    def test_registered(self):
        from repro.attack.registry import get_modality

        assert get_modality("evictframe") is EvictFrameAttack

    def test_stage_names_extend_explframe(self):
        machine = small_machine()
        attack = EvictFrameAttack(machine, config=fast_config())
        assert attack.stage_names() == (
            "template", "steer", "evictset", "rehammer", "pfa",
        )
        stages = attack.resolution_stages()
        assert [stage.name for stage in stages] == ["evictset", "rehammer", "pfa"]
        # Policy slots are the fixed OrchestratorConfig trio — the
        # checkpoint config-hash contract forbids new fields.
        assert {stage.policy for stage in stages} <= {"steer", "rehammer", "pfa"}

    def test_failure_classes_add_eviction_set_incomplete(self):
        from repro.attack.base import FailureClass

        machine = small_machine()
        attack = EvictFrameAttack(machine, config=fast_config())
        assert FailureClass.EVICTION_SET_INCOMPLETE in attack.failure_classes()

    def test_evict_metric_family_registered(self):
        machine = small_machine()
        EvictFrameAttack(machine, config=fast_config())
        snapshot = machine.obs.metrics.snapshot()
        families = {name for name in snapshot if name.startswith("attack.evict.")}
        assert families == {
            "attack.evict.sets_derived",
            "attack.evict.set_lines",
            "attack.evict.probe_reads",
            "attack.evict.rounds",
            "attack.evict.aggressor_accesses",
            "attack.evict.aggressor_evictions",
            "attack.evict.wasted_activations",
        }
        # PFA still runs under this modality, so its family stays too.
        assert "attack.pfa.ciphertexts" in snapshot


@pytest.mark.slow
class TestEndToEnd:
    def _campaign(self, **kwargs):
        from repro.attack.orchestrator import AttackCampaign

        return AttackCampaign(
            MachineConfig(
                seed=7,
                geometry=DRAMGeometry.small(),
                flip_model=FlipModelConfig.highly_vulnerable(),
            ),
            2,
            modality="evictframe",
            attack_config=fast_config(),
            **kwargs,
        )

    def test_campaign_recovers_keys_and_accounts_accuracy(self):
        result = self._campaign().run()
        assert result.successes == result.attempts
        families = result.metrics["families"]

        def total(name):
            return sum(families[name]["instances"].values())

        accesses = total("attack.evict.aggressor_accesses")
        evictions = total("attack.evict.aggressor_evictions")
        assert accesses > 0
        assert evictions / accesses > 0.95
        assert total("attack.evict.wasted_activations") > 0

    def test_serial_and_pooled_digests_match(self):
        serial = self._campaign().run()
        pooled = self._campaign(workers=2).run()
        assert serial.digest() == pooled.digest()
        assert pooled.successes == serial.successes
