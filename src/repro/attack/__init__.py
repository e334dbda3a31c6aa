"""Attack modalities over the page-frame-cache primitive, and baselines.

The shared front half, exactly as the paper's Sections V-VI describe:

1. **Templating** (:mod:`repro.attack.templating`) — the unprivileged
   attacker mmaps a large buffer, finds same-bank aggressor pairs by
   *timing* (she cannot read physical addresses), hammers, and scans her
   own memory for repeatable bit flips.
2. **Steering** (:mod:`repro.attack.steering`) — she munmaps a page
   containing a useful flip; the frame lands on the hot end of her CPU's
   page frame cache; the co-resident victim's next small allocation
   receives it.

What happens *after* a successful steer is the attack **modality**: each
attack class is one (:mod:`repro.attack.base` defines the contract,
:mod:`repro.attack.registry` the name → class table; docs/ATTACKS.md):

* ``explframe`` (:mod:`repro.attack.explframe`) — re-hammer the steered
  flip into the victim's S-box and recover the key by persistent fault
  analysis of its ciphertexts (the paper's attack, and the default).
* ``faultprobe`` (:mod:`repro.attack.faultprobe`) — read the secret bit
  *under* the steered flip back from response discrepancies: the flip
  only fires when the stored data arms it (FAULT+PROBE, PAPERS.md).
* ``evictframe`` (:mod:`repro.attack.evictframe`) — ExplFrame hammered
  through timing-verified cache eviction sets instead of clflush
  (Rowhammer.js-style, PAPERS.md).

:mod:`repro.attack.baselines` implements the comparison points: a
privileged pagemap-guided attack (upper bound) and an unsteered random
spray (lower bound).  :mod:`repro.attack.orchestrator` drives any
modality's stage graph in a resilient state machine (retries, budgets,
failure forensics) for runs under injected adversity.
"""

from repro.attack.base import (
    ResolutionStage,
    StageOutcome,
    TargetVictim,
)
from repro.attack.baselines import PagemapAttack, RandomSprayAttack
from repro.attack.explframe import ExplFrameAttack, ExplFrameConfig
from repro.attack.faultprobe import FaultProbeAttack
from repro.attack.hammer import Hammerer
from repro.attack.orchestrator import (
    AttackCampaign,
    AttackOrchestrator,
    AttackRunReport,
    CampaignResult,
    FailureClass,
    OrchestratorConfig,
    RetryPolicy,
    StageFailure,
)
from repro.attack.registry import available_modalities, get_modality
from repro.attack.steering import SteeringProtocol, SteeringTrialConfig
from repro.attack.templating import Templator, TemplatorConfig

__all__ = [
    "AttackCampaign",
    "AttackOrchestrator",
    "AttackRunReport",
    "CampaignResult",
    "ExplFrameAttack",
    "ExplFrameConfig",
    "FailureClass",
    "FaultProbeAttack",
    "Hammerer",
    "OrchestratorConfig",
    "PagemapAttack",
    "RandomSprayAttack",
    "ResolutionStage",
    "RetryPolicy",
    "StageFailure",
    "StageOutcome",
    "SteeringProtocol",
    "SteeringTrialConfig",
    "TargetVictim",
    "Templator",
    "TemplatorConfig",
    "available_modalities",
    "get_modality",
]
