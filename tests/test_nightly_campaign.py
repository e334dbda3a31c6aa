"""Nightly wide fan-out smoke: a 10 000-attempt campaign must complete.

Before the CoW snapshot refactor, each attempt deep-copied the whole warm
machine (~170 ms and megabytes of allocation per fork), so wide fan-out
stalled on snapshot cost.  This smoke proves 10 000 forks from one warm
template neither OOM nor stall.  Each attempt runs under a tiny
orchestrator deadline so it fails fast at the budget check — attempt cost
is then dominated by fork cost, which is exactly what the test measures.

Excluded from the default run (``-m "not nightly"`` in addopts); the CI
nightly lane selects it with ``pytest -m nightly``.
"""

import pytest

from repro.attack.explframe import ExplFrameConfig
from repro.attack.orchestrator import AttackCampaign, OrchestratorConfig
from repro.attack.templating import TemplatorConfig
from repro.core import MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.units import MIB


@pytest.mark.nightly
class TestWideFanOut:
    def test_10k_attempt_campaign_completes(self):
        config = MachineConfig(
            seed=7,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
        )
        fast = ExplFrameConfig(
            templator=TemplatorConfig(
                buffer_bytes=4 * MIB, batch_pairs=8
            )
        )
        campaign = AttackCampaign(
            config,
            10_000,
            attack_config=fast,
            orchestrator_config=OrchestratorConfig(deadline_ns=1),
        )
        result = campaign.run()
        assert len(result.reports) == 10_000

    def test_10k_forks_from_one_snapshot(self):
        machine_config = MachineConfig(
            seed=7,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
        )
        fast = ExplFrameConfig(
            templator=TemplatorConfig(
                buffer_bytes=4 * MIB, batch_pairs=8
            )
        )
        campaign = AttackCampaign(machine_config, 1, attack_config=fast)
        snapshot = campaign._warm_snapshot()
        for index in range(10_000):
            machine, _ = snapshot.fork(seed=index)
            assert machine.rng.master_seed == index
