"""Orchestrator: config validation, recovery under chaos, determinism."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.attack.explframe import ExplFrameAttack, ExplFrameConfig
from repro.attack.orchestrator import (
    AttackOrchestrator,
    CampaignFold,
    FailureClass,
    OrchestratorConfig,
    RetryPolicy,
)
from repro.attack.templating import TemplatorConfig
from repro.core.machine import Machine, MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.chaos import ChaosEngine, chaos_profile
from repro.sim.errors import ConfigError, TemplatingExhaustedError
from repro.sim.units import MIB, MS
from tests.metric_states import metric_state

FAST = TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
# No recovery: one templating campaign and one try per stage.
NO_RECOVERY = OrchestratorConfig(
    campaign_budget=1, steer=RetryPolicy(1), rehammer=RetryPolicy(1), pfa=RetryPolicy(1)
)


def vulnerable_machine(seed):
    return Machine(
        MachineConfig(
            seed=seed,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
        )
    )


def make_attack(seed, chaos=None, intensity=1.0):
    m = vulnerable_machine(seed)
    if chaos is not None:
        ChaosEngine(m.kernel, chaos_profile(chaos, intensity))
    return ExplFrameAttack(m, config=ExplFrameConfig(templator=FAST))


class TestPolicyAndConfig:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_base_ns=10, backoff_factor=3.0)
        assert [policy.backoff_ns(n) for n in range(3)] == [10, 30, 90]

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_base_ns=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            OrchestratorConfig(deadline_ns=0)
        with pytest.raises(ConfigError):
            OrchestratorConfig(activation_budget=-1)
        with pytest.raises(ConfigError):
            OrchestratorConfig(campaign_budget=0)


class TestBackoff:
    def test_backoff_advances_through_the_event_scheduler(self):
        machine = Machine(MachineConfig.small(seed=7))
        orchestrator = AttackOrchestrator(ExplFrameAttack(machine))
        controller = machine.controller
        refw = controller.timing.t_refw_ns
        refreshes, now = controller.refresh_count, machine.clock.now_ns
        orchestrator._backoff(RetryPolicy(1, backoff_base_ns=3 * refw), 0)
        # Refresh ticks fire inside the wait, not only at the next access.
        assert controller.refresh_count == refreshes + 3
        assert machine.clock.now_ns == now + 3 * refw


class TestRecovery:
    def test_clean_run_succeeds_without_failures(self):
        report = AttackOrchestrator(make_attack(7)).run()
        assert report.success
        assert report.failures == ()
        assert report.final_failure is None
        assert report.recovered_key == report.true_key

    def test_recovers_from_stolen_frame(self):
        # steal chaos defeats a run with no room to recover...
        single = AttackOrchestrator(make_attack(7, chaos="steal"), NO_RECOVERY).run()
        assert not single.success
        assert [r.outcome for r in single.timeline if r.stage == "steer"] == ["fail"]
        assert FailureClass.STEERING_MISS.value in single.failure_classes
        # ...but the orchestrator classifies the miss and re-steers.
        report = AttackOrchestrator(make_attack(7, chaos="steal")).run()
        assert report.success
        assert FailureClass.STEERING_MISS.value in report.failure_classes

    def test_recovers_from_trr_burst(self):
        report = AttackOrchestrator(make_attack(7, chaos="trr")).run()
        assert report.success
        assert FailureClass.NON_REPEATABLE_FLIP.value in report.failure_classes

    def test_recovers_from_migration_with_repin(self):
        report = AttackOrchestrator(make_attack(7, chaos="migrate")).run()
        assert report.success
        assert any("repinned" in action for action in report.recoveries)

    def test_every_failure_is_classified(self):
        report = AttackOrchestrator(make_attack(7, chaos="storm")).run()
        for record in report.timeline:
            if record.outcome == "fail":
                assert record.failure is not None
                assert record.failure.failure_class in FailureClass

    def test_deadline_budget_exhaustion(self):
        attack = make_attack(7, chaos="steal")
        config = OrchestratorConfig(deadline_ns=1 * MS)  # less than one campaign
        report = AttackOrchestrator(attack, config).run()
        assert not report.success
        assert report.final_failure is not None
        assert report.final_failure.failure_class is FailureClass.BUDGET_EXHAUSTED

    def test_templating_exhaustion_is_terminal_and_classified(self):
        m = Machine(
            MachineConfig(
                seed=0,
                geometry=DRAMGeometry.small(),
                flip_model=FlipModelConfig.invulnerable(),
            )
        )
        attack = ExplFrameAttack(
            m, config=ExplFrameConfig(templator=FAST, max_campaigns=1)
        )
        config = OrchestratorConfig(campaign_budget=1)
        report = AttackOrchestrator(attack, config).run()
        assert not report.success
        assert report.final_failure.failure_class is FailureClass.TEMPLATING_EXHAUSTED

    def test_report_timeline_is_ordered(self):
        report = AttackOrchestrator(make_attack(7, chaos="steal")).run()
        times = [record.start_ns for record in report.timeline]
        assert times == sorted(times)


class TestDeterminism:
    def test_same_seed_same_profile_byte_identical_report(self):
        first = AttackOrchestrator(make_attack(7, chaos="storm")).run().to_json()
        second = AttackOrchestrator(make_attack(7, chaos="storm")).run().to_json()
        assert first == second


class TestTemplatingExhaustedError:
    def test_raised_with_counts(self):
        m = Machine(
            MachineConfig(
                seed=0,
                geometry=DRAMGeometry.small(),
                flip_model=FlipModelConfig.invulnerable(),
            )
        )
        attack = ExplFrameAttack(
            m, config=ExplFrameConfig(templator=FAST, max_campaigns=2)
        )
        with pytest.raises(TemplatingExhaustedError) as excinfo:
            attack.template_until_usable()
        assert excinfo.value.campaigns == 2
        assert excinfo.value.flips_found == 0


# -- the campaign fold -------------------------------------------------------------


def _outcome(index, counter, gauge, observations, success):
    """One synthetic attempt outcome: canonical report JSON, success, metrics state."""
    state = metric_state(counter=counter, gauge=gauge, observations=observations)
    report_json = f'{{"index":{index},"success":{"true" if success else "false"}}}'
    return index, report_json, success, state


_OUTCOME_FIELDS = st.tuples(
    st.integers(0, 50),
    st.one_of(st.none(), st.integers(-5, 5)),
    st.lists(st.integers(0, 500), max_size=3),
    st.booleans(),
)


class TestCampaignFold:
    """Both engines fold through :class:`CampaignFold`; arrival order is noise."""

    @staticmethod
    def _fold(outcomes):
        fold = CampaignFold()
        for outcome in outcomes:
            fold.add(*outcome)
        return fold.result()

    @settings(max_examples=60, deadline=None)
    @given(
        fields=st.lists(_OUTCOME_FIELDS, min_size=1, max_size=8),
        data=st.data(),
    )
    def test_any_arrival_order_folds_like_attempt_order(self, fields, data):
        outcomes = [_outcome(index, *field) for index, field in enumerate(fields)]
        arrival = data.draw(st.permutations(outcomes))
        in_order, shuffled = self._fold(outcomes), self._fold(arrival)
        assert shuffled.digest() == in_order.digest()
        assert shuffled.successes == in_order.successes
        assert shuffled.metrics == in_order.metrics
        # The digest is the documented one: sha256 over report JSON + "\n",
        # in attempt order.
        expected = hashlib.sha256(
            "".join(outcome[1] + "\n" for outcome in outcomes).encode("utf-8")
        ).hexdigest()
        assert in_order.digest() == expected
        assert in_order.attempts == len(outcomes)
        assert in_order.successes == sum(outcome[2] for outcome in outcomes)
        assert in_order.reports == ()
