"""The attack-modality contract: what any attack must give the orchestrator.

The repo started as one attack (ExplFrame's PFA pipeline) hard-wired
into the orchestrator, campaigns, the checkpoint service and the CLI.
This module is the seam that makes attacks pluggable: an attack class
*is* its modality — it names itself (``modality_name``), describes
itself (``description``), names its config dataclass (``config_class``)
and its constructor builds the per-run :class:`AttackRun` driver
(:mod:`repro.attack.registry` maps names to classes).  The orchestrator
supplies generic control flow (candidate restocking, steering, retries,
budgets, forensics) and asks the run object only for its *resolution
stages* — the modality-specific work that happens once a templated flip
sits inside the victim's page.

Every modality shares the front half of the pipeline — template
(find repeatable flips), steer (drop the flippy frame into the victim's
allocation) — because that is the paper's page-frame-cache primitive.
What differs is how a steered flip is *resolved* into secrets:
ExplFrame re-hammers and runs persistent fault analysis over faulty
ciphertexts; FAULT+PROBE re-hammers and reads the flipped bit back from
a response-discrepancy oracle.  A :class:`ResolutionStage` packages one
such step with its retry-policy key and failure semantics, so the
orchestrator can drive any modality's stage graph without knowing its
name (contract: docs/ATTACKS.md).

The failure taxonomy (:class:`FailureClass`, :class:`StageFailure`)
lives here — it is part of the cross-modality report schema — and is
re-exported from :mod:`repro.attack.orchestrator` for compatibility.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, runtime_checkable


class FailureClass(str, Enum):
    """Why an attempt (or the whole run) failed.

    String-valued so reports serialise to stable, readable JSON.  The
    first block is generic (any modality can hit them through the shared
    template/steer/budget flow); the rest belong to specific resolution
    stages.  A modality declares the subset it can emit via
    :meth:`AttackRun.failure_classes`, and only that subset registers
    failure counters — so adding a class here never perturbs another
    modality's metrics snapshot.
    """

    TEMPLATING_EXHAUSTED = "templating-exhausted"
    STEERING_MISS = "steering-miss"
    NON_REPEATABLE_FLIP = "non-repeatable-flip"
    DISARMED_DIRECTION = "disarmed-direction"
    PFA_INCONCLUSIVE = "pfa-inconclusive"
    KEY_MISMATCH = "key-mismatch"
    BUDGET_EXHAUSTED = "budget-exhausted"
    PROBE_INCONCLUSIVE = "probe-inconclusive"
    EVICTION_SET_INCOMPLETE = "eviction-set-incomplete"


@dataclass(frozen=True)
class StageFailure:
    """One classified failure, with enough detail to debug the run."""

    stage: str
    failure_class: FailureClass
    detail: str

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "class": self.failure_class.value,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> StageFailure:
        return cls(
            stage=data["stage"],
            failure_class=FailureClass(data["class"]),
            detail=data["detail"],
        )


#: Stage names every modality shares (the orchestrator's own flow) —
#: modality stage lists start with these, then append resolution stages.
GENERIC_STAGES = ("template", "steer")

#: Failure classes the shared template/steer/budget flow can emit.
GENERIC_FAILURE_CLASSES = (
    FailureClass.TEMPLATING_EXHAUSTED,
    FailureClass.STEERING_MISS,
    FailureClass.BUDGET_EXHAUSTED,
)


@dataclass(frozen=True)
class StageOutcome:
    """What one resolution-stage attempt produced.

    ``advance`` selects the orchestrator's reaction to a failure:
    ``"retry"`` backs off (per the stage's policy) and re-attempts,
    ``"next-candidate"`` abandons this template immediately — no
    backoff — and discards any previously recovered material (the
    candidate's fault model was wrong, so material derived from it is
    suspect).
    """

    ok: bool
    failure: StageFailure | None = None
    recovery: str | None = None
    advance: str = "retry"  # "retry" | "next-candidate"
    recovered: bytes | None = None


@dataclass(frozen=True)
class ResolutionStage:
    """One modality-specific stage driven after a successful steer.

    ``run(victim, template, attempt)`` performs attempt ``attempt``
    (0-based) and returns a :class:`StageOutcome`; the orchestrator
    records it, applies the retry policy named by ``policy`` (an
    attribute of :class:`~repro.attack.orchestrator.OrchestratorConfig`)
    and handles budgets/backoff around it.  ``verify``, when present,
    runs once after the stage succeeds and may veto the candidate by
    returning a :class:`StageFailure` (ground-truth shape checks live
    here — scoring, not attacker knowledge).
    """

    name: str
    policy: str
    run: Callable[[object, object, int], StageOutcome]
    verify: Callable[[object, object], StageFailure | None] | None = None


@runtime_checkable
class TargetVictim(Protocol):
    """What a steered victim must offer the workload engine's target slot.

    Any modality's steer stage produces one of these;
    :meth:`repro.workload.engine.WorkloadEngine.attach_target` accepts
    them structurally (``CipherVictim`` is the canonical implementation).
    ``fetch_tables`` serves a block nobody reads: ``encrypt``'s table
    fetches without its rounds.
    """

    pid: int

    def encrypt(self, block: bytes) -> bytes: ...

    def fetch_tables(self) -> None: ...


class AttackRun(Protocol):
    """The per-run driver an attack class's constructor returns.

    The orchestrator drives this interface generically; it never names a
    concrete attack class.  Beyond the methods below, a run exposes the
    shared-front-half surface: ``machine``, ``kernel``, ``attacker``
    (the attacker task), ``config`` (with ``.cpu``), ``obs``,
    ``true_key``, ``tenant_workload``, ``campaigns_run``,
    ``total_flips``, ``hammer_rounds_total``,
    ``template_until_usable(budget)``, ``retire_templator()`` and
    ``stage_and_steer(template)``.
    """

    modality_name: str

    def stage_names(self) -> tuple[str, ...]: ...

    def failure_classes(self) -> tuple[FailureClass, ...]: ...

    def resolution_stages(self) -> tuple[ResolutionStage, ...]: ...

    def run_complete(self) -> bool: ...

    def analysis_units_consumed(self) -> int: ...

    def report_extra(self) -> dict | None: ...

