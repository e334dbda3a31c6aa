"""Orchestrator control flow against a scripted stub modality.

Before the modality layer, the retry/budget/deadline paths could only be
exercised through end-to-end ExplFrame machines (seconds per case).  The
stub here drives :class:`AttackOrchestrator` through the same code paths
in milliseconds: a fake kernel clock, scripted stage outcomes, no DRAM —
which is exactly what the modality contract (docs/ATTACKS.md) promises a
new attack needs to provide.
"""

from types import SimpleNamespace

import pytest

from repro.attack.base import (
    FailureClass,
    GENERIC_STAGES,
    ResolutionStage,
    StageFailure,
    StageOutcome,
)
from repro.attack.orchestrator import (
    AttackOrchestrator,
    AttackRunReport,
    OrchestratorConfig,
    RetryPolicy,
)
from repro.core.results import FlipTemplate
from repro.obs import Observability
from repro.sim.errors import ConfigError, TemplatingExhaustedError
from repro.sim.units import MS

STAGE_COST_NS = 1_000
STEER_COST_NS = 10


def make_template(page_va=0x1000):
    return FlipTemplate(
        page_va=page_va,
        page_offset=0x80,
        bit=3,
        flips_to_one=False,
        aggressor_vas=(0x2000, 0x4000),
    )


def fail_retry():
    return StageOutcome(
        ok=False,
        failure=StageFailure(
            "work", FailureClass.PROBE_INCONCLUSIVE, "scripted retry"
        ),
    )


def fail_next_candidate():
    return StageOutcome(
        ok=False,
        advance="next-candidate",
        failure=StageFailure(
            "work", FailureClass.KEY_MISMATCH, "scripted next-candidate"
        ),
    )


class FakeClock:
    def __init__(self):
        self.now_ns = 0

    def advance(self, ns):
        self.now_ns += ns


class FakeKernel:
    def __init__(self):
        self.clock = FakeClock()
        self.chaos = None
        self.repins = []

    def sys_sched_setaffinity(self, pid, cpus):
        self.repins.append((pid, frozenset(cpus)))


class _AlwaysMapped:
    def is_mapped(self, va):
        return True


class StubAttack:
    """Minimal AttackRun: scripted steer results and stage outcomes."""

    modality_name = "stub"

    def __init__(
        self,
        *,
        outcomes=(),
        steers=(),
        candidates_per_campaign=1,
        complete_after=1,
    ):
        self.kernel = FakeKernel()
        self.machine = SimpleNamespace(
            rng=SimpleNamespace(master_seed=7), run_until=self._run_until
        )
        self.obs = Observability()
        self.attacker = SimpleNamespace(
            pid=1, cpu=0, mm=SimpleNamespace(page_table=_AlwaysMapped())
        )
        self.config = SimpleNamespace(cpu=0)
        self.true_key = bytes(16)
        self.tenant_workload = None
        self.campaigns_run = 0
        self.total_flips = 0
        self.hammer_rounds_total = 0
        self.analysis_units = 0
        self._outcomes = list(outcomes)
        self._steers = list(steers)
        self._candidates_per_campaign = candidates_per_campaign
        self._complete_after = complete_after
        self._resolved = 0

    def _run_until(self, target_ns):
        """Backoffs wait on the fake clock; the stub schedules no events."""
        self.kernel.clock.advance(target_ns - self.kernel.clock.now_ns)
        return 0

    # -- shared front half -------------------------------------------------------

    def template_until_usable(self, budget):
        self.campaigns_run += 1
        if self._candidates_per_campaign == 0:
            raise TemplatingExhaustedError(
                "scripted dry buffer", campaigns=budget, flips_found=0
            )
        self.total_flips += self._candidates_per_campaign
        return [
            make_template(0x1000 * (self.campaigns_run * 16 + index))
            for index in range(self._candidates_per_campaign)
        ]

    def retire_templator(self):
        pass

    def stage_and_steer(self, template):
        self.kernel.clock.advance(STEER_COST_NS)
        steered = self._steers.pop(0) if self._steers else True
        return object(), 42, steered

    # -- modality contract -------------------------------------------------------

    def stage_names(self):
        return GENERIC_STAGES + ("work",)

    def failure_classes(self):
        return (
            FailureClass.TEMPLATING_EXHAUSTED,
            FailureClass.STEERING_MISS,
            FailureClass.PROBE_INCONCLUSIVE,
            FailureClass.KEY_MISMATCH,
            FailureClass.BUDGET_EXHAUSTED,
        )

    def resolution_stages(self):
        return (ResolutionStage("work", policy="pfa", run=self._work),)

    def run_complete(self):
        return self._resolved >= self._complete_after

    def analysis_units_consumed(self):
        return self.analysis_units

    def report_extra(self):
        return {"resolved": self._resolved}

    def _work(self, victim, template, attempt):
        self.kernel.clock.advance(STAGE_COST_NS)
        self.analysis_units += 1
        outcome = self._outcomes.pop(0) if self._outcomes else StageOutcome(ok=True)
        if outcome.ok:
            self._resolved += 1
        return outcome


def config(**kwargs):
    kwargs.setdefault(
        "pfa", RetryPolicy(max_attempts=3, backoff_base_ns=MS, backoff_factor=2.0)
    )
    return OrchestratorConfig(**kwargs)


def run(attack, cfg=None, candidates=None):
    return AttackOrchestrator(attack, cfg or config(), candidates=candidates).run()


class TestHappyPath:
    def test_success_first_try(self):
        report = run(StubAttack())
        assert report.success
        assert [record.stage for record in report.timeline] == [
            "template", "steer", "work",
        ]
        assert report.candidates_tried == 1
        assert report.faulty_ciphertexts == 1  # one analysis unit consumed
        assert report.final_failure is None

    def test_report_carries_modality_and_extra(self):
        report = run(StubAttack())
        data = report.to_dict()
        assert data["modality"] == "stub"
        assert data["extra"] == {"resolved": 1}

    def test_report_round_trips_byte_identically(self):
        report = run(StubAttack(outcomes=[fail_retry()]))
        assert AttackRunReport.from_dict(report.to_dict()).to_json() == report.to_json()

    def test_default_modality_is_omitted_from_serialized_reports(self):
        report = run(StubAttack())
        data = AttackRunReport.from_dict(
            {**report.to_dict(), "modality": "explframe", "extra": None}
        ).to_dict()
        assert "modality" not in data
        assert "extra" not in data


class TestRetryPath:
    def test_retries_back_off_then_succeed(self):
        report = run(StubAttack(outcomes=[fail_retry(), fail_retry()]))
        assert report.success
        work = [r for r in report.timeline if r.stage == "work"]
        assert [r.outcome for r in work] == ["fail", "fail", "ok"]
        assert [r.attempt for r in work] == [0, 1, 2]
        # Backoff is exponential sim-time after every failed attempt:
        # 1 ms then 2 ms on top of the steer and three stage costs.
        assert report.budget.sim_time_ns == (
            STEER_COST_NS + 3 * STAGE_COST_NS + MS + 2 * MS
        )

    def test_exhausted_retries_fall_to_next_candidate(self):
        attack = StubAttack(
            outcomes=[fail_retry()] * 3, candidates_per_campaign=2
        )
        report = run(attack)
        assert report.success
        assert report.candidates_tried == 2
        assert len(report.failures) == 3
        assert report.failure_classes == ["probe-inconclusive"]

    def test_next_candidate_advances_without_backoff(self):
        attack = StubAttack(
            outcomes=[fail_next_candidate()], candidates_per_campaign=2
        )
        report = run(attack)
        assert report.success
        assert report.candidates_tried == 2
        # No backoff for a next-candidate failure: two steers, two stage
        # attempts, nothing else on the clock.
        assert report.budget.sim_time_ns == 2 * (STEER_COST_NS + STAGE_COST_NS)

    def test_steering_miss_is_recorded_and_retried(self):
        report = run(StubAttack(steers=[False, True], candidates_per_campaign=2))
        assert report.success
        misses = [r for r in report.timeline if r.stage == "steer" and r.outcome == "fail"]
        assert len(misses) == 1
        assert misses[0].failure.failure_class is FailureClass.STEERING_MISS


class TestBudgets:
    def test_deadline_terminates_with_budget_failure(self):
        attack = StubAttack(outcomes=[fail_retry()] * 3)
        report = run(attack, config(deadline_ns=MS))
        assert not report.success
        assert report.final_failure.failure_class is FailureClass.BUDGET_EXHAUSTED
        assert "deadline" in report.final_failure.detail
        assert report.timeline[-1].stage == "budget"

    def test_activation_budget_checked_before_any_stage(self):
        attack = StubAttack()
        attack.hammer_rounds_total = 1_000
        report = run(attack, config(activation_budget=100))
        assert not report.success
        assert "activations" in report.final_failure.detail
        assert [record.stage for record in report.timeline] == ["budget"]

    def test_campaign_budget_bounds_retemplating(self):
        attack = StubAttack(
            outcomes=[fail_next_candidate()] * 2, candidates_per_campaign=1
        )
        report = run(attack, config(campaign_budget=2))
        assert not report.success
        assert report.final_failure.detail.startswith("campaigns:")
        assert attack.campaigns_run == 2

    def test_templating_exhaustion_is_classified(self):
        report = run(StubAttack(candidates_per_campaign=0))
        assert not report.success
        assert (
            report.final_failure.failure_class is FailureClass.TEMPLATING_EXHAUSTED
        )


class TestStageContract:
    def test_verify_veto_falls_to_next_candidate(self):
        class VetoFirst(StubAttack):
            def __init__(self):
                super().__init__(candidates_per_campaign=2)
                self.vetoes = [
                    StageFailure(
                        "work", FailureClass.KEY_MISMATCH, "scripted veto"
                    ),
                    None,
                ]

            def resolution_stages(self):
                return (
                    ResolutionStage(
                        "work", policy="pfa",
                        run=self._work, verify=lambda v, t: self.vetoes.pop(0),
                    ),
                )

        report = run(VetoFirst())
        assert report.success
        assert report.candidates_tried == 2
        assert len(report.failures) == 1

    def test_run_complete_false_consumes_more_candidates(self):
        attack = StubAttack(candidates_per_campaign=3, complete_after=2)
        report = run(attack)
        assert report.success
        assert report.candidates_tried == 2
        assert report.to_dict()["extra"] == {"resolved": 2}

    def test_unknown_policy_name_is_a_config_error(self):
        class BadPolicy(StubAttack):
            def resolution_stages(self):
                return (ResolutionStage("work", policy="nope", run=self._work),)

        with pytest.raises(ConfigError, match="no retry policy named 'nope'"):
            run(BadPolicy())

    def test_recovered_material_lands_in_the_report(self):
        class Recovers(StubAttack):
            def _work(self, victim, template, attempt):
                outcome = super()._work(victim, template, attempt)
                if outcome.ok:
                    return StageOutcome(ok=True, recovered=b"\xaa" * 16)
                return outcome

        report = run(Recovers())
        assert report.success
        assert report.recovered_key == "aa" * 16
