"""Resilient attack orchestration: retries, budgets, failure forensics.

Every attack run goes through :class:`AttackOrchestrator`, the one
driver: it takes a modality's stage methods (docs/ATTACKS.md) and runs
them in an explicit state machine:

* **Per-stage retry policies** with exponential backoff *in simulated
  clock time* — waiting out a TRR sampling burst or a threshold-drift
  window costs sim-nanoseconds, not host time, and the advance also lets
  refresh epochs roll over so residual disturbance decays.
* **Global budgets** — a deadline (sim time), an activation budget
  (total hammer rounds), and a campaign budget (templating passes).
  Budgets are checked before every attempt; a blown budget terminates
  the run with a ``budget-exhausted`` failure naming the budget.
* **Typed failure classification** — every failed attempt is recorded as
  a :class:`StageFailure` with a :class:`FailureClass`; no run ever ends
  with an unexplained cause.
* **Recovery strategies per class** — a steering miss repins the
  attacker (migration recovery) and steers the next candidate template;
  a non-repeatable flip backs off and re-hammers; a disarmed or
  mismatched fault falls back to the next candidate; an empty candidate
  queue launches a fresh templating campaign.

Everything the run did lands in an :class:`AttackRunReport` — a
per-stage timeline, the failure log, every chaos event that fired, and
the budget spend — serialisable to byte-identical JSON for the same
seed and chaos plan.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

# The failure taxonomy lives in repro.attack.base (it is part of the
# cross-modality contract); reports and budgets here are built from it.
from repro.attack.base import FailureClass, StageFailure
from repro.core.results import FlipTemplate
from repro.obs.metrics import MetricStateAccumulator, metric_key
from repro.sim.errors import ConfigError, TemplatingExhaustedError
from repro.sim.rng import derive_seed
from repro.sim.units import MS, SECOND


# -- policies and budgets ----------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How often to retry a stage and how long to back off between tries.

    Backoff is exponential: attempt ``n`` (0-based) waits
    ``backoff_base_ns * backoff_factor**n`` of *simulated* time.
    """

    max_attempts: int = 3
    backoff_base_ns: int = 10 * MS
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be at least 1, got {self.max_attempts}")
        if self.backoff_base_ns < 0:
            raise ConfigError(f"backoff_base_ns must be non-negative, got {self.backoff_base_ns}")
        if self.backoff_factor < 1.0:
            raise ConfigError(f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def backoff_ns(self, attempt: int) -> int:
        """Sim-time to wait after failed attempt ``attempt`` (0-based)."""
        return int(self.backoff_base_ns * self.backoff_factor**attempt)


@dataclass(frozen=True)
class OrchestratorConfig:
    """Budgets and per-stage retry policies for one orchestrated run.

    The policy fields are keyed by resolution stages through
    :class:`~repro.attack.base.ResolutionStage.policy` — e.g. FAULT+PROBE's
    ``probe`` stage declares ``policy="pfa"``, reusing the analysis-stage
    slot rather than adding a field (which would change this dataclass's
    repr and with it every existing checkpoint's config hash).
    """

    deadline_ns: int = 120 * SECOND
    activation_budget: int = 100_000_000_000
    campaign_budget: int = 8
    steer: RetryPolicy = field(default_factory=lambda: RetryPolicy(4, 10 * MS, 2.0))
    rehammer: RetryPolicy = field(default_factory=lambda: RetryPolicy(4, 20 * MS, 3.0))
    pfa: RetryPolicy = field(default_factory=lambda: RetryPolicy(3, 1 * MS, 2.0))

    def __post_init__(self) -> None:
        if self.deadline_ns <= 0:
            raise ConfigError(f"deadline_ns must be positive, got {self.deadline_ns}")
        if self.activation_budget <= 0:
            raise ConfigError(
                f"activation_budget must be positive, got {self.activation_budget}"
            )
        if self.campaign_budget <= 0:
            raise ConfigError(f"campaign_budget must be positive, got {self.campaign_budget}")

    def policy_for(self, name: str) -> RetryPolicy:
        """The retry policy a resolution stage named as its key."""
        policy = getattr(self, name, None)
        if not isinstance(policy, RetryPolicy):
            raise ConfigError(f"no retry policy named {name!r} on OrchestratorConfig")
        return policy


# -- report ------------------------------------------------------------------------


@dataclass(frozen=True)
class AttemptRecord:
    """One stage attempt on the run's timeline."""

    stage: str
    attempt: int
    start_ns: int
    end_ns: int
    outcome: str  # "ok" | "fail"
    failure: StageFailure | None = None
    recovery: str | None = None

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "attempt": self.attempt,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "outcome": self.outcome,
            "failure": None if self.failure is None else self.failure.to_dict(),
            "recovery": self.recovery,
        }

    @classmethod
    def from_dict(cls, data: dict) -> AttemptRecord:
        failure = data.get("failure")
        return cls(
            stage=data["stage"],
            attempt=data["attempt"],
            start_ns=data["start_ns"],
            end_ns=data["end_ns"],
            outcome=data["outcome"],
            failure=None if failure is None else StageFailure.from_dict(failure),
            recovery=data.get("recovery"),
        )


@dataclass(frozen=True)
class BudgetSpend:
    """What the run consumed versus what it was allowed."""

    sim_time_ns: int
    deadline_ns: int
    hammer_rounds: int
    activation_budget: int
    campaigns: int
    campaign_budget: int

    def to_dict(self) -> dict:
        return {
            "sim_time_ns": self.sim_time_ns,
            "deadline_ns": self.deadline_ns,
            "hammer_rounds": self.hammer_rounds,
            "activation_budget": self.activation_budget,
            "campaigns": self.campaigns,
            "campaign_budget": self.campaign_budget,
        }

    @classmethod
    def from_dict(cls, data: dict) -> BudgetSpend:
        return cls(
            sim_time_ns=data["sim_time_ns"],
            deadline_ns=data["deadline_ns"],
            hammer_rounds=data["hammer_rounds"],
            activation_budget=data["activation_budget"],
            campaigns=data["campaigns"],
            campaign_budget=data["campaign_budget"],
        )


@dataclass(frozen=True)
class AttackRunReport:
    """Structured forensics for one orchestrated attack run.

    Deterministic under (machine seed, chaos plan): :meth:`to_json` is
    byte-identical across replays.
    """

    seed: int
    chaos_profile: str
    success: bool
    recovered_key: str | None
    true_key: str
    final_failure: StageFailure | None
    timeline: tuple[AttemptRecord, ...]
    failures: tuple[StageFailure, ...]
    chaos_events: tuple[dict, ...]
    budget: BudgetSpend
    templated_flips: int
    candidates_tried: int
    recoveries: tuple[str, ...]
    faulty_ciphertexts: int
    # Scenario runs only (repro.workload): which tenant the attack
    # targeted and how many noisy neighbours shared the machine.  Kept
    # out of the serialized form when unset so pre-scenario reports (and
    # their checked-in campaign digests) are byte-identical.
    target_tenant: str | None = None
    background_tenants: int = 0
    # Which attack produced this report, plus the modality's own result
    # block (``report_extra()``).  Both are omitted from the serialized
    # form for the default explframe modality, keeping pre-modality
    # report bytes (and the checked-in campaign digests) identical.
    modality: str = "explframe"
    extra: dict | None = None

    @property
    def failure_classes(self) -> list[str]:
        """Distinct failure classes seen, in first-occurrence order."""
        seen: list[str] = []
        for failure in self.failures:
            if failure.failure_class.value not in seen:
                seen.append(failure.failure_class.value)
        return seen

    @property
    def attempts(self) -> int:
        """Total stage attempts on the timeline."""
        return len(self.timeline)

    @property
    def stage_sim_time_ns(self) -> dict[str, int]:
        """Simulated time spent inside each stage, summed over attempts.

        Sourced from the timeline's event-scheduler timestamps; backoff
        waits between attempts are not inside any stage, so the values
        sum to less than ``budget.sim_time_ns``.
        """
        totals: dict[str, int] = {}
        for record in self.timeline:
            totals[record.stage] = (
                totals.get(record.stage, 0) + record.end_ns - record.start_ns
            )
        return totals

    def to_dict(self) -> dict:
        out = {
            "stage_sim_time_ns": self.stage_sim_time_ns,
            "seed": self.seed,
            "chaos_profile": self.chaos_profile,
            "success": self.success,
            "recovered_key": self.recovered_key,
            "true_key": self.true_key,
            "final_failure": None if self.final_failure is None else self.final_failure.to_dict(),
            "failure_classes": self.failure_classes,
            "timeline": [record.to_dict() for record in self.timeline],
            "failures": [failure.to_dict() for failure in self.failures],
            "chaos_events": list(self.chaos_events),
            "budget": self.budget.to_dict(),
            "templated_flips": self.templated_flips,
            "candidates_tried": self.candidates_tried,
            "recoveries": list(self.recoveries),
            "faulty_ciphertexts": self.faulty_ciphertexts,
        }
        if self.target_tenant is not None:
            out["target_tenant"] = self.target_tenant
            out["background_tenants"] = self.background_tenants
        if self.modality != "explframe":
            out["modality"] = self.modality
        if self.extra is not None:
            out["extra"] = self.extra
        return out

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> AttackRunReport:
        """Rebuild a report from :meth:`to_dict` output.

        Derived keys (``stage_sim_time_ns``, ``failure_classes``) are
        recomputed from the reconstructed fields, so
        ``from_dict(r.to_dict()).to_json() == r.to_json()`` byte for
        byte.  The campaign service's finalize pass rebuilds every
        journaled report with it, so both engines digest ``to_json()``.
        """
        final_failure = data.get("final_failure")
        return cls(
            seed=data["seed"],
            chaos_profile=data["chaos_profile"],
            success=data["success"],
            recovered_key=data.get("recovered_key"),
            true_key=data["true_key"],
            final_failure=(
                None if final_failure is None else StageFailure.from_dict(final_failure)
            ),
            timeline=tuple(
                AttemptRecord.from_dict(record) for record in data["timeline"]
            ),
            failures=tuple(
                StageFailure.from_dict(failure) for failure in data["failures"]
            ),
            chaos_events=tuple(data["chaos_events"]),
            budget=BudgetSpend.from_dict(data["budget"]),
            templated_flips=data["templated_flips"],
            candidates_tried=data["candidates_tried"],
            recoveries=tuple(data["recoveries"]),
            faulty_ciphertexts=data["faulty_ciphertexts"],
            target_tenant=data.get("target_tenant"),
            background_tenants=data.get("background_tenants", 0),
            modality=data.get("modality", "explframe"),
            extra=data.get("extra"),
        )


# -- the orchestrator --------------------------------------------------------------


class AttackOrchestrator:
    """Runs any modality's :class:`~repro.attack.base.AttackRun` to success
    or exhaustion.

    The attack object supplies the stages (the shared template/steer
    front half plus its declared resolution stages); the orchestrator
    supplies the control flow, keyed purely by stage *name* — it never
    names a concrete attack class.  Chaos (if any) is attached to the
    kernel separately — the orchestrator only *reads* ``kernel.chaos``
    for forensics, it never injects adversity itself.
    """

    def __init__(
        self,
        attack,
        config: OrchestratorConfig | None = None,
        candidates: Iterable[FlipTemplate] | None = None,
    ):
        self.attack = attack
        self.kernel = attack.kernel
        self.config = config or OrchestratorConfig()
        # Pre-stocked candidate templates (from a warm forked machine):
        # the run starts steering immediately and only re-templates once
        # these are spent.
        self._initial_candidates = tuple(candidates or ())
        self._timeline: list[AttemptRecord] = []
        self._failures: list[StageFailure] = []
        self._recoveries: list[str] = []
        self._stage_attempts: dict[str, int] = {}
        self._start_ns = 0
        self.obs = attack.obs
        metrics = self.obs.metrics
        # Instrument labels come from the modality: registering only the
        # stages/classes it can emit keeps every other modality's metric
        # snapshot unchanged (registered instruments appear at zero).
        stage_names = tuple(attack.stage_names())
        failure_classes = tuple(attack.failure_classes())
        self._m_attempts = {
            stage: metrics.counter("attack.stage.attempts", labels={"stage": stage})
            for stage in (*stage_names, "budget")
        }
        self._m_failures = {
            failure_class.value: metrics.counter(
                "attack.stage.failures", labels={"class": failure_class.value}
            )
            for failure_class in failure_classes
        }
        self._m_recoveries = metrics.counter("attack.recoveries")
        self._m_stage_dur = metrics.histogram("attack.stage.duration_ns")

    # -- bookkeeping -------------------------------------------------------------

    def _record(
        self,
        stage: str,
        start_ns: int,
        *,
        failure: StageFailure | None = None,
        recovery: str | None = None,
    ) -> None:
        attempt = self._stage_attempts.get(stage, 0)
        self._stage_attempts[stage] = attempt + 1
        if failure is not None:
            self._failures.append(failure)
        if recovery is not None:
            self._recoveries.append(recovery)
        end_ns = self.kernel.clock.now_ns
        self._timeline.append(
            AttemptRecord(
                stage=stage,
                attempt=attempt,
                start_ns=start_ns,
                end_ns=end_ns,
                outcome="ok" if failure is None else "fail",
                failure=failure,
                recovery=recovery,
            )
        )
        self._m_attempts[stage].inc()
        self._m_stage_dur.observe(end_ns - start_ns)
        if failure is not None:
            self._m_failures[failure.failure_class.value].inc()
        if recovery is not None:
            self._m_recoveries.inc()
        # The attempt is only known once it finished, so the span is
        # emitted retroactively with explicit begin/end stamps.
        self.obs.tracer.complete(
            "attack.attempt", "attack", start_ns, end_ns,
            stage=stage, attempt=attempt,
            outcome="ok" if failure is None else "fail",
            failure=None if failure is None else failure.failure_class.value,
            recovery=recovery,
        )

    def _blown_budget(self) -> StageFailure | None:
        """The budget the run has exhausted, if any."""
        elapsed = self.kernel.clock.now_ns - self._start_ns
        if elapsed >= self.config.deadline_ns:
            return StageFailure(
                "budget",
                FailureClass.BUDGET_EXHAUSTED,
                f"deadline: {elapsed} ns elapsed of {self.config.deadline_ns} ns",
            )
        if self.attack.hammer_rounds_total >= self.config.activation_budget:
            return StageFailure(
                "budget",
                FailureClass.BUDGET_EXHAUSTED,
                f"activations: {self.attack.hammer_rounds_total} rounds "
                f"of {self.config.activation_budget}",
            )
        return None

    def _backoff(self, policy: RetryPolicy, attempt: int) -> None:
        """Wait out adversity in simulated time (never past hope).

        The wait runs through the machine's event scheduler, so refresh
        ticks (and any other timed work) fire at their due instants during
        the backoff instead of coalescing at its end.
        """
        wait = policy.backoff_ns(attempt)
        self.attack.machine.run_until(self.kernel.clock.now_ns + wait)

    # -- recovery helpers ---------------------------------------------------------

    def _repin_if_migrated(self) -> str | None:
        """Pull the attacker back onto the victim-shared CPU if moved."""
        attacker = self.attack.attacker
        home = self.attack.config.cpu
        if attacker.cpu == home:
            return None
        moved_from = attacker.cpu
        self.kernel.sys_sched_setaffinity(attacker.pid, frozenset({home}))
        return f"repinned attacker from cpu {moved_from} to cpu {home}"

    # -- the state machine ---------------------------------------------------------

    def run(self) -> AttackRunReport:
        """Drive template → steer → resolution stages to success or exhaustion."""
        with self.obs.tracer.span("attack.orchestrate", "attack") as span:
            report = self._run()
            span.set("success", report.success)
            span.set("attempts", report.attempts)
        return report

    def _resolve_candidate(
        self, victim, template: FlipTemplate
    ) -> tuple[bytes | None, StageFailure | None, bool]:
        """Run the modality's resolution stages against one steered victim.

        Returns ``(recovered, final_failure, resolved)``: ``resolved``
        is True only when every stage (and its verify hook) passed; a
        non-None ``final_failure`` is a blown budget that must terminate
        the whole run.  Each stage retries under its own policy —
        failures with ``advance="retry"`` back off and re-attempt,
        ``"next-candidate"`` abandons the template immediately.
        """
        recovered: bytes | None = None
        for stage in self.attack.resolution_stages():
            policy = self.config.policy_for(stage.policy)
            stage_ok = False
            for attempt in range(policy.max_attempts):
                budget_failure = self._blown_budget()
                if budget_failure is not None:
                    self._record(
                        "budget", self.kernel.clock.now_ns, failure=budget_failure
                    )
                    return recovered, budget_failure, False
                start = self.kernel.clock.now_ns
                outcome = stage.run(victim, template, attempt)
                if outcome.ok:
                    self._record(stage.name, start, recovery=outcome.recovery)
                    if outcome.recovered is not None:
                        recovered = outcome.recovered
                    stage_ok = True
                    break
                self._record(
                    stage.name, start,
                    failure=outcome.failure, recovery=outcome.recovery,
                )
                if outcome.advance == "next-candidate":
                    # The candidate's fault model was wrong; anything
                    # recovered from it is suspect.
                    return None, None, False
                self._backoff(policy, attempt)
            if not stage_ok:
                return recovered, None, False
            if stage.verify is not None:
                veto = stage.verify(victim, template)
                if veto is not None:
                    self._record(
                        veto.stage, self.kernel.clock.now_ns, failure=veto
                    )
                    return recovered, None, False
        return recovered, None, True

    def _run(self) -> AttackRunReport:
        attack = self.attack
        self._start_ns = self.kernel.clock.now_ns
        candidates: deque[FlipTemplate] = deque(self._initial_candidates)
        candidates_tried = 0
        # Analysis-unit spend (ciphertexts for PFA, probes for FAULT+PROBE)
        # is reported as this run's delta, matching the pre-modality
        # per-run accumulator.
        analysis_start = attack.analysis_units_consumed()
        steer_misses = 0
        final_failure: StageFailure | None = None
        success = False
        recovered: bytes | None = None

        while not success:
            final_failure = self._blown_budget()
            if final_failure is not None:
                self._record("budget", self.kernel.clock.now_ns, failure=final_failure)
                break

            # -- template: keep a candidate queue stocked -------------------------
            if not candidates:
                campaigns_left = self.config.campaign_budget - attack.campaigns_run
                if campaigns_left <= 0:
                    final_failure = StageFailure(
                        "template",
                        FailureClass.BUDGET_EXHAUSTED,
                        f"campaigns: {attack.campaigns_run} run of "
                        f"{self.config.campaign_budget}",
                    )
                    self._record("budget", self.kernel.clock.now_ns, failure=final_failure)
                    break
                start = self.kernel.clock.now_ns
                recovery = None
                if attack.campaigns_run > 0:
                    # The previous buffer has unmapped (staged) holes, so a
                    # re-fill would fault; template over fresh memory.
                    attack.retire_templator()
                    recovery = "fresh templating campaign over a new buffer"
                try:
                    usable = attack.template_until_usable(campaigns_left)
                except TemplatingExhaustedError as exc:
                    final_failure = StageFailure(
                        "template",
                        FailureClass.TEMPLATING_EXHAUSTED,
                        f"{exc.campaigns} campaigns, {exc.flips_found} flips, "
                        "none armed and in-table",
                    )
                    self._record("template", start, failure=final_failure)
                    break
                candidates.extend(usable)
                self._record("template", start, recovery=recovery)

            template = candidates.popleft()
            # Staging a sibling template may have unmapped this page already.
            if not attack.attacker.mm.page_table.is_mapped(template.page_va):
                continue
            candidates_tried += 1

            # -- steer: stage the flippy frame into the victim's allocation -------
            start = self.kernel.clock.now_ns
            recovery = self._repin_if_migrated()
            victim, staged_pfn, steered = attack.stage_and_steer(template)
            if not steered:
                steer_misses += 1
                failure = StageFailure(
                    "steer",
                    FailureClass.STEERING_MISS,
                    f"staged frame {staged_pfn} was not the victim's table frame",
                )
                self._record("steer", start, failure=failure, recovery=recovery)
                if steer_misses % self.config.steer.max_attempts == 0:
                    # Too many consecutive misses from this buffer: the cache
                    # is being churned under us — start over with fresh frames.
                    candidates.clear()
                self._backoff(self.config.steer, steer_misses - 1)
                continue
            self._record("steer", start, recovery=recovery)
            steer_misses = 0

            # -- resolution: the modality's own stages over the steered victim ----
            recovered, final_failure, resolved = self._resolve_candidate(
                victim, template
            )
            if final_failure is not None:
                break
            if not resolved:
                continue  # next candidate template
            success = attack.run_complete()

        if success:
            final_failure = None
        elif final_failure is None and self._failures:
            final_failure = self._failures[-1]

        chaos = self.kernel.chaos
        workload = attack.tenant_workload
        return AttackRunReport(
            seed=attack.machine.rng.master_seed,
            chaos_profile="none" if chaos is None else chaos.plan.name,
            success=success,
            recovered_key=recovered.hex() if success and recovered is not None else None,
            true_key=attack.true_key.hex(),
            final_failure=final_failure,
            timeline=tuple(self._timeline),
            failures=tuple(self._failures),
            chaos_events=tuple(chaos.records_as_dicts()) if chaos is not None else (),
            budget=BudgetSpend(
                sim_time_ns=self.kernel.clock.now_ns - self._start_ns,
                deadline_ns=self.config.deadline_ns,
                hammer_rounds=attack.hammer_rounds_total,
                activation_budget=self.config.activation_budget,
                campaigns=attack.campaigns_run,
                campaign_budget=self.config.campaign_budget,
            ),
            templated_flips=attack.total_flips,
            candidates_tried=candidates_tried,
            recoveries=tuple(self._recoveries),
            faulty_ciphertexts=attack.analysis_units_consumed() - analysis_start,
            target_tenant=None if workload is None else workload.scenario.target,
            background_tenants=0 if workload is None else workload.background_count,
            modality=attack.modality_name,
            extra=attack.report_extra(),
        )


# -- campaign fan-out --------------------------------------------------------------


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of an N-attempt campaign, as a :class:`CampaignFold` built it.

    ``digest()`` is the SHA-256 over every attempt's canonical report
    JSON, in attempt order: the equality witness that every worker
    count and every engine (in memory, pooled, checkpointed) produce
    literally the same attacks.  ``reports`` holds the reports of an
    in-memory run and is empty for a checkpointed one, whose reports
    live in the journal (docs/CAMPAIGNS.md).  ``metrics`` (the
    per-attempt registries folded in attempt order), ``pool`` (worker
    pool stats: wall times, pids) and ``service`` (checkpoint journal
    stats) ride outside the digest: the first is order-deterministic,
    the other two are host noise.
    """

    attempts: int
    successes: int
    sha256: str
    reports: tuple[AttackRunReport, ...] = ()
    metrics: dict | None = None
    pool: dict | None = None
    service: dict | None = None

    def digest(self) -> str:
        """SHA-256 over the concatenated canonical report JSONs."""
        return self.sha256

    def to_dict(self) -> dict:
        out = {
            "attempts": self.attempts,
            "successes": self.successes,
            "digest": self.sha256,
            "reports": [report.to_dict() for report in self.reports],
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics
        if self.pool is not None:
            out["pool"] = self.pool
        if self.service is not None:
            out["service"] = self.service
        return out


class CampaignFold:
    """Folds attempt outcomes into one :class:`CampaignResult`, in attempt order.

    The one place a campaign's digest, successes and merged metrics are
    computed: :meth:`AttackCampaign.run` adds live outcomes, the campaign
    service its journal pass.  Adds may come in any order; only the
    outcomes that arrive ahead of their turn wait here.
    """

    def __init__(self) -> None:
        self._hasher = hashlib.sha256()
        self._metrics = MetricStateAccumulator()
        self._successes = 0
        self._early: dict[int, tuple[str, bool, dict]] = {}

    def add(self, index: int, report_json: str, success: bool, state: dict) -> None:
        """Take attempt ``index``'s canonical report JSON, success and metrics snapshot."""
        self._early[index] = (report_json, success, state)
        while self._metrics.sources in self._early:
            report_json, success, state = self._early.pop(self._metrics.sources)
            self._hasher.update(report_json.encode("utf-8"))
            self._hasher.update(b"\n")
            self._successes += bool(success)
            self._metrics.add(state)

    def result(self, **blocks) -> CampaignResult:
        """The folded result; ``blocks`` are ``reports``, ``pool`` and ``service``."""
        return CampaignResult(
            attempts=self._metrics.sources,
            successes=self._successes,
            sha256=self._hasher.hexdigest(),
            metrics=self._metrics.result(),
            **blocks,
        )


class AttackCampaign:
    """Runs N orchestrated attack attempts against one machine shape.

    Every attempt is an independent machine in the same warm state — a
    freshly built machine whose attacker has already templated a usable
    candidate set — re-keyed with a per-attempt seed
    (``derive_seed(base_seed, "campaign/<i>")``) so post-templating
    randomness (PFA plaintexts, victim interaction) varies per attempt
    while the hardware and the templated state stay fixed.

    One strategy reaches that state, as the paper's attacker does:
    build and template **once**, snapshot, and
    :meth:`~repro.core.machine.MachineSnapshot.fork` per attempt.  The
    dominant fixed cost (templating a whole buffer under refresh) is paid
    one time.  Determinism makes a fork byte-identical to a machine
    rebuilt and re-templated from scratch, so reseeding either gives the
    same report (``TestCampaignForkEquivalence`` keeps that oracle).

    Every run — in memory, pooled or checkpointed — consumes the one
    attempt stream :meth:`iter_attempts`.  With ``workers > 1`` the stream
    is served by a process pool (see :mod:`repro.parallel.pool`) that
    ships the pickled warm snapshot to every worker.  The digest is
    identical for every ``workers`` value by construction: attempt ``i``
    always runs on a fork re-keyed with
    ``derive_seed(base_seed, "campaign/i")``, and reports are ordered by
    attempt index before hashing (docs/CAMPAIGNS.md).

    A non-``"none"`` ``chaos_profile`` attaches a per-attempt
    :class:`~repro.sim.chaos.ChaosPlan` derived from the attempt seed
    (:func:`~repro.sim.chaos.chaos_plan_for_attempt`) to each attempt's
    machine after the reseed, so adversity varies across attempts but is
    a pure function of (profile, attempt seed, intensity).
    """

    def __init__(
        self,
        base_config,
        attempts: int,
        *,
        modality: str = "explframe",
        attack_config=None,
        orchestrator_config: OrchestratorConfig | None = None,
        chaos_profile: str = "none",
        chaos_intensity: float = 1.0,
        workers: int = 1,
        scenario=None,
    ):
        from repro.attack.registry import get_modality

        if attempts <= 0:
            raise ConfigError(f"attempts must be positive, got {attempts}")
        if workers < 1:
            raise ConfigError(f"workers must be at least 1, got {workers}")
        # Resolved eagerly so an unknown name fails at construction (CLI
        # exit 2), not in a worker process mid-campaign.
        attack_cls = get_modality(modality)
        self.modality = modality
        self.base_config = base_config
        self.attempts = attempts
        self.attack_config = attack_config or attack_cls.config_class()
        self.orchestrator_config = orchestrator_config or OrchestratorConfig()
        self.chaos_profile = chaos_profile
        self.chaos_intensity = chaos_intensity
        self.workers = workers
        # A repro.workload Scenario (or None): attempts run against a
        # multi-tenant machine, steering at the target tenant amid
        # background traffic.  Plain frozen data — it pickles to workers,
        # journals through checkpoints and pins the config hash.
        self.scenario = scenario
        if scenario is not None and scenario.target_spec.cipher != self.attack_config.cipher:
            raise ConfigError(
                f"attack cipher {self.attack_config.cipher!r} does not match "
                f"scenario {scenario.name!r}'s target tenant "
                f"({scenario.target_spec.cipher!r})"
            )

    def _attempt_seed(self, index: int) -> int:
        return derive_seed(self.base_config.seed, f"campaign/{index}")

    def _warm(self):
        """Build a machine and drive its attack to post-templating state."""
        from repro.attack.registry import get_modality
        from repro.core.machine import Machine

        machine = Machine(self.base_config)
        workload = None
        if self.scenario is not None:
            from repro.workload import WorkloadEngine

            workload = WorkloadEngine(machine, self.scenario)
            workload.start()
        attack = get_modality(self.modality)(
            machine, config=self.attack_config, tenant_workload=workload
        )
        candidates = tuple(
            attack.template_until_usable(self.orchestrator_config.campaign_budget)
        )
        return machine, attack, candidates

    def _warm_snapshot(self):
        """Warm once and freeze (machine + attack + candidates) for forking.

        The warm machine ends once frozen: only its snapshot is forked.
        """
        machine, attack, candidates = self._warm()
        snapshot = machine.snapshot(
            extras={"attack": attack, "candidates": candidates}
        )
        machine.close()
        return snapshot

    def _run_attempt(self, snapshot, index: int):
        """Run attempt ``index``: the campaign's one unit of work.

        Forks ``snapshot``, reseeds, attaches the per-attempt chaos plan
        (if any) and orchestrates.  The ordering is identical in every
        engine, which is what keeps the digest worker-count-independent.
        Once the report and the metrics snapshot are taken the fork is
        closed (:meth:`~repro.core.machine.Machine.close`), so reference
        counting frees it, private frames and all, before the next
        attempt forks.  Returns ``(index, report, metrics_state, pid,
        wall_ns)``; the last two are host telemetry.
        """
        start = time.perf_counter_ns()
        machine, extras = snapshot.fork()
        try:
            attack, candidates = extras["attack"], extras["candidates"]
            attack.bind_obs(machine.obs)
            seed = self._attempt_seed(index)
            machine.rng.reseed(seed)
            if self.chaos_profile != "none":
                from repro.sim.chaos import ChaosEngine, chaos_plan_for_attempt

                plan = chaos_plan_for_attempt(
                    self.chaos_profile, seed, self.chaos_intensity
                )
                ChaosEngine(machine.kernel, plan)
            orchestrator = AttackOrchestrator(
                attack, self.orchestrator_config, candidates=candidates
            )
            report = orchestrator.run()
            state = machine.obs.metrics.snapshot()
        finally:
            machine.close()
        return index, report, state, os.getpid(), time.perf_counter_ns() - start

    def iter_attempts(self, indices, *, snapshot_blob: bytes | None = None):
        """Yield ``(index, report, metrics_state, pid, wall_ns)`` per attempt.

        The one attempt stream behind every campaign run: :meth:`run`
        collects it in memory, the campaign service
        (:mod:`repro.parallel.service`) journals it.  With ``workers ==
        1`` the attempts run here, in ``indices`` order, forking one warm
        snapshot.  With ``workers > 1`` they run on a process pool with at
        most :func:`~repro.parallel.pool.inflight_window` in flight, yielded
        in completion order; a died worker raises
        :class:`~repro.sim.errors.WorkerLostError`.

        ``snapshot_blob`` is warm state the caller already pickled with
        :meth:`~repro.core.machine.MachineSnapshot.to_bytes`; without it
        the campaign warms here, once.
        """
        indices = list(indices)
        if not indices:
            return
        if self.workers > 1:
            from repro.parallel.pool import iter_pooled

            if snapshot_blob is None:
                snapshot_blob = self._warm_snapshot().to_bytes()
            yield from iter_pooled(self, indices, snapshot_blob=snapshot_blob)
            return
        if snapshot_blob is None:
            snapshot = self._warm_snapshot()
        else:
            from repro.core.machine import MachineSnapshot

            snapshot = MachineSnapshot.from_bytes(snapshot_blob)
        for index in indices:
            yield self._run_attempt(snapshot, index)

    def _pool_block(
        self, *, owned: int, dispatched: int, completed: int, wall_by_pid: dict
    ) -> dict:
        """The ``campaign.pool.*`` block of a run over ``owned`` attempts.

        ``wall_by_pid`` sums each process's attempt wall time; workers
        are numbered 0..N-1 in pid order.  Keys are sorted as a registry
        snapshot sorts them.  Host wall times and worker partitioning are
        not deterministic, so the block stays outside the digest.
        """
        mode = "serial" if self.workers == 1 else "ship"
        walls = {
            metric_key("campaign.pool.worker_wall_ns", {"worker": str(worker)}): wall_by_pid[pid]
            for worker, pid in enumerate(sorted(wall_by_pid))
        }
        return {
            "campaign.pool.attempts_completed": completed,
            "campaign.pool.attempts_dispatched": dispatched,
            metric_key("campaign.pool.mode", {"mode": mode}): 1,
            **dict(sorted(walls.items())),
            "campaign.pool.workers": min(self.workers, max(1, owned)),
        }

    def run(self) -> CampaignResult:
        """Execute every attempt; returns the ordered, in-memory result.

        Reports are kept (the result holds them).  Every outcome is also
        added to one :class:`CampaignFold` as it arrives, which digests
        and merges metrics in attempt order, so only the outcomes a pool
        delivers ahead of their turn wait in memory, not one metrics
        dump per attempt.  A died pool worker raises
        :class:`~repro.sim.errors.WorkerLostError`; only the campaign
        service retries.
        """
        reports: list = [None] * self.attempts
        fold = CampaignFold()
        wall_by_pid: dict[int, int] = {}
        for index, report, state, pid, wall_ns in self.iter_attempts(
            range(self.attempts)
        ):
            reports[index] = report
            fold.add(index, report.to_json(), report.success, state)
            wall_by_pid[pid] = wall_by_pid.get(pid, 0) + wall_ns
        return fold.result(
            reports=tuple(reports),
            pool=self._pool_block(
                owned=self.attempts,
                dispatched=self.attempts,
                completed=self.attempts,
                wall_by_pid=wall_by_pid,
            ),
        )
