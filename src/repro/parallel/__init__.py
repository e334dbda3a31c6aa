"""Multiprocess execution backends for campaigns.

:mod:`repro.parallel.pool` serves a campaign's attempt stream
(:meth:`~repro.attack.orchestrator.AttackCampaign.iter_attempts`) from a
process pool when ``workers > 1``; :mod:`repro.parallel.service` is the
checkpointed campaign service that journals that stream (resumable,
streaming).  Both implement the execution contract in
``docs/CAMPAIGNS.md``.
"""

from repro.parallel.pool import iter_pooled
from repro.parallel.service import (
    CampaignService,
    campaign_config_hash,
    register_service_metrics,
)

__all__ = [
    "CampaignService",
    "campaign_config_hash",
    "iter_pooled",
    "register_service_metrics",
]
