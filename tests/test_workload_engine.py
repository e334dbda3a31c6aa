"""Workload engine: arrival independence, traffic accounting, digests.

The contract under test (docs/SCENARIOS.md): a tenant's arrival offsets
from the workload epoch are a pure function of its own knobs and RNG
stream — other tenants never perturb them — and a scenario campaign
digests bit-identically at every worker count.
"""

import pytest

from repro.attack.explframe import ExplFrameConfig
from repro.attack.orchestrator import AttackCampaign, AttackRunReport
from repro.attack.templating import TemplatorConfig
from repro.core import Machine, MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.errors import ConfigError
from repro.sim.units import MIB, SECOND
from repro.workload import Scenario, TenantSpec, WorkloadEngine, scenario_preset

FAST = ExplFrameConfig(
    templator=TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
)


def vulnerable_config(seed=7):
    return MachineConfig(
        seed=seed,
        geometry=DRAMGeometry.small(),
        flip_model=FlipModelConfig.highly_vulnerable(),
    )


def run_workload(scenario, seed=11, horizon_ns=SECOND // 2):
    machine = Machine(MachineConfig.small(seed=seed))
    engine = WorkloadEngine(machine, scenario)
    engine.start()
    machine.run_until(engine.epoch_ns + horizon_ns)
    return engine


class TestArrivalIndependence:
    def test_background_tenant_does_not_perturb_target_arrivals(self):
        """Adding bob must not move a single one of alice's arrivals."""
        alone = run_workload(scenario_preset("single"))
        crowd = run_workload(scenario_preset("duet"))
        offsets_alone = alone.tenants["alice"].arrival_offsets
        offsets_crowd = crowd.tenants["alice"].arrival_offsets
        assert offsets_alone, "no arrivals in the horizon — widen it"
        # Serving costs simulated time, so one run may squeeze in a few
        # more arrivals than the other; the common prefix must be exact.
        common = min(len(offsets_alone), len(offsets_crowd))
        assert common >= 10
        assert offsets_alone[:common] == offsets_crowd[:common]

    def test_arrivals_are_seed_deterministic(self):
        first = run_workload(scenario_preset("duet"), seed=3)
        second = run_workload(scenario_preset("duet"), seed=3)
        other_seed = run_workload(scenario_preset("duet"), seed=4)
        for name in ("alice", "bob"):
            assert (
                first.tenants[name].arrival_offsets
                == second.tenants[name].arrival_offsets
            )
        assert (
            first.tenants["alice"].arrival_offsets
            != other_seed.tenants["alice"].arrival_offsets
        )

    def test_jitter_zero_is_periodic(self):
        scenario = Scenario(
            name="strict",
            target="tick",
            tenants=(
                TenantSpec(
                    name="tick", request_rate_hz=100.0, jitter=0.0, cpu=0
                ),
            ),
        )
        engine = run_workload(scenario)
        offsets = engine.tenants["tick"].arrival_offsets
        deltas = {b - a for a, b in zip(offsets, offsets[1:])}
        assert deltas == {10**7}  # exactly 10 ms apart


class TestTrafficAccounting:
    def test_background_tenants_serve_target_queues(self):
        engine = run_workload(scenario_preset("duet"))
        alice, bob = engine.tenants["alice"], engine.tenants["bob"]
        # The target has no victim until the attack attaches one: its
        # arrivals queue (and overflow drops); bob serves everything.
        assert alice.victim is None
        assert alice.served == 0
        assert alice.queue + alice.dropped == alice.issued
        assert bob.issued > 0
        assert bob.served == bob.issued
        assert bob.blocks_encrypted == bob.served * bob.spec.payload_blocks

    def test_summary_shape(self):
        engine = run_workload(scenario_preset("duet"))
        summary = engine.summary()
        assert summary["alice"]["role"] == "target"
        assert summary["bob"]["role"] == "noise"
        assert summary["bob"]["cipher"] == "aes"
        assert summary["bob"]["key_bits"] == 256
        assert summary["bob"]["served"] == engine.tenants["bob"].served

    def test_workload_metrics_register(self):
        engine = run_workload(scenario_preset("duet"))
        families = set(engine.machine.obs.metrics.family_names())
        assert "workload.tenant.requests_issued" in families
        assert "workload.tenant.requests_served" in families
        assert "workload.tenant.queue_depth" in families
        assert "workload.tenant.encryptions" in families

    def test_cpu_pin_beyond_machine_rejected(self):
        scenario = Scenario(
            name="s",
            target="a",
            tenants=(TenantSpec(name="a", cpu=7),),
        )
        with pytest.raises(ConfigError, match="cpu 7"):
            WorkloadEngine(Machine(MachineConfig.small(seed=1)), scenario)

    def test_double_start_rejected(self):
        machine = Machine(MachineConfig.small(seed=1))
        engine = WorkloadEngine(machine, scenario_preset("single"))
        engine.start()
        with pytest.raises(ConfigError, match="already started"):
            engine.start()


class TestScenarioReports:
    def test_report_round_trip_carries_tenant_fields(self):
        campaign = AttackCampaign(
            vulnerable_config(seed=5),
            1,
            attack_config=FAST,
            scenario=scenario_preset("duet"),
        )
        report = campaign.run().reports[0]
        assert report.target_tenant == "alice"
        assert report.background_tenants == 1
        again = AttackRunReport.from_dict(report.to_dict())
        assert again == report
        assert again.to_json() == report.to_json()

    def test_non_scenario_report_omits_tenant_fields(self):
        from repro.attack.orchestrator import BudgetSpend

        # Constructed without a scenario, the fields default and the
        # serialized form has no tenant keys at all — that omission is
        # what keeps pre-scenario campaign digests byte-identical.
        report = AttackRunReport(
            seed=1,
            chaos_profile="none",
            success=True,
            recovered_key="00" * 16,
            true_key="00" * 16,
            final_failure=None,
            timeline=(),
            failures=(),
            chaos_events=(),
            budget=BudgetSpend(0, 0, 0, 0, 0, 0),
            templated_flips=0,
            candidates_tried=0,
            recoveries=(),
            faulty_ciphertexts=0,
        )
        data = report.to_dict()
        assert "target_tenant" not in data
        assert "background_tenants" not in data
        again = AttackRunReport.from_dict(data)
        assert again.target_tenant is None
        assert again.background_tenants == 0
        assert again.to_json() == report.to_json()

    def test_scenario_cipher_must_match_attack_config(self):
        with pytest.raises(ConfigError, match="cipher"):
            AttackCampaign(
                vulnerable_config(seed=5),
                1,
                attack_config=ExplFrameConfig(
                    cipher="present",
                    templator=TemplatorConfig(buffer_bytes=4 * MIB),
                ),
                scenario=scenario_preset("duet"),
            )


@pytest.mark.slow
class TestScenarioCampaignParity:
    def test_duet_digest_is_worker_independent(self):
        def run(**kwargs):
            return AttackCampaign(
                vulnerable_config(seed=5),
                2,
                attack_config=FAST,
                scenario=scenario_preset("duet"),
                **kwargs,
            ).run()

        serial = run()
        pooled = run(workers=2)
        assert serial.digest() == pooled.digest()
        assert serial.metrics == pooled.metrics


@pytest.mark.nightly
class TestApartmentDigest:
    def test_apartment_8_digest_is_worker_independent(self):
        def run(**kwargs):
            return AttackCampaign(
                vulnerable_config(seed=9),
                4,
                attack_config=FAST,
                scenario=scenario_preset("apartment-8"),
                **kwargs,
            ).run()

        serial = run()
        pooled = run(workers=2)
        assert serial.digest() == pooled.digest()
        assert {report.target_tenant for report in serial.reports} == {"t0"}
        assert {report.background_tenants for report in serial.reports} == {7}
