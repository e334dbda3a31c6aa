"""Worker-pool dispatch: metric merging, snapshot shipping, digest parity.

The contract under test (docs/CAMPAIGNS.md): parallel execution is an
engine choice, never a result choice.  Campaign digests and merged
metrics must be bit-identical for every worker count and warm strategy, the
warm snapshot must survive a pickle round-trip without changing fork
behaviour, and merged metric blocks must follow the documented
counter/histogram/gauge semantics.
"""

import pickle

import pytest

from repro.attack.explframe import ExplFrameConfig
from repro.attack.orchestrator import AttackCampaign
from repro.attack.templating import TemplatorConfig
from repro.core import Machine, MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.obs import NOOP_OBS
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    MetricsRegistry,
    MetricStateAccumulator,
)
from repro.parallel import pool as pool_module
from repro.parallel.pool import make_pool_block, register_pool_metrics
from repro.sim.chaos import chaos_plan_for_attempt
from repro.sim.errors import ConfigError
from repro.sim.units import MIB, MS

FAST = ExplFrameConfig(
    templator=TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
)


def vulnerable_config(seed=7):
    return MachineConfig(
        seed=seed,
        geometry=DRAMGeometry.small(),
        flip_model=FlipModelConfig.highly_vulnerable(),
    )


def merge(states):
    """Fold ``states``, in order, the way a campaign run does."""
    accumulator = MetricStateAccumulator()
    for state in states:
        accumulator.add(state)
    return accumulator.result()


class TestMergeMetricStates:
    def _registry(self, counter=0, gauge=None, observations=()):
        registry = MetricsRegistry(enabled=True)
        if counter:
            registry.counter("t.count", unit="items").inc(counter)
        if gauge is not None:
            registry.gauge("t.level", unit="items").set(gauge)
        histogram = registry.histogram("t.size", buckets=(10, 100), unit="b")
        for value in observations:
            histogram.observe(value)
        return registry

    def test_counters_sum_across_states(self):
        states = [
            self._registry(counter=2).export_state(),
            self._registry(counter=5).export_state(),
        ]
        merged = merge(states)
        assert merged["sources"] == 2
        assert merged["families"]["t.count"]["instances"]["t.count"] == 7

    def test_gauges_list_one_value_per_source_in_order(self):
        states = [
            self._registry(gauge=3).export_state(),
            self._registry().export_state(),  # gauge absent here
            self._registry(gauge=9).export_state(),
        ]
        merged = merge(states)
        assert merged["families"]["t.level"]["instances"]["t.level"] == [3, None, 9]

    def test_histograms_add_bucket_wise(self):
        states = [
            self._registry(observations=(5, 50)).export_state(),
            self._registry(observations=(500,)).export_state(),
        ]
        value = merge(states)["families"]["t.size"]["instances"]["t.size"]
        assert value["count"] == 3
        assert value["sum"] == 555
        assert value["buckets"] == {"le_10": 1, "le_100": 2, "le_inf": 3}

    def test_kind_conflict_is_rejected(self):
        a = MetricsRegistry(enabled=True)
        a.counter("t.mixed").inc()
        b = MetricsRegistry(enabled=True)
        b.gauge("t.mixed").set(1)
        with pytest.raises(ConfigError, match="cannot merge"):
            merge([a.export_state(), b.export_state()])

    def test_histogram_bucket_mismatch_is_rejected(self):
        a = MetricsRegistry(enabled=True)
        a.histogram("t.size", buckets=(10, 100)).observe(1)
        b = MetricsRegistry(enabled=True)
        b.histogram("t.size", buckets=(1, 2)).observe(1)
        with pytest.raises(ConfigError, match="bucket bounds differ"):
            merge([a.export_state(), b.export_state()])

    def test_merge_matches_single_registry_snapshot_semantics(self):
        """Merging one state renders exactly like the live snapshot."""
        registry = self._registry(counter=3, gauge=4, observations=(5, 500))
        merged = merge([registry.export_state()])
        live = registry.snapshot()
        families = merged["families"]
        assert families["t.count"]["instances"]["t.count"] == live["t.count"]
        assert families["t.size"]["instances"]["t.size"] == live["t.size"]

    def test_streaming_fold_renders_the_whole_block(self):
        """One state at a time, the accumulator renders every family."""
        states = [
            self._registry(counter=2, gauge=1, observations=(5,)).export_state(),
            self._registry(counter=3, observations=(50, 500)).export_state(),
            self._registry(gauge=9).export_state(),
        ]
        accumulator = MetricStateAccumulator()
        for count, state in enumerate(states):
            assert accumulator.sources == count
            accumulator.add(state)
        assert accumulator.result() == {
            "sources": 3,
            "families": {
                "t.count": {"kind": "counter", "unit": "items",
                            "instances": {"t.count": 5}},
                "t.level": {"kind": "gauge", "unit": "items",
                            "instances": {"t.level": [1, None, 9]}},
                "t.size": {"kind": "histogram", "unit": "b", "instances": {
                    "t.size": {"count": 3, "sum": 555, "buckets": {
                        "le_10": 1, "le_100": 2, "le_inf": 3}},
                }},
            },
        }


class TestSnapshotPickling:
    def test_null_instruments_pickle_as_singletons(self):
        for singleton in (NOOP_OBS, NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM):
            assert pickle.loads(pickle.dumps(singleton)) is singleton

    def test_snapshot_round_trip_preserves_fork_destiny(self):
        from repro.core.machine import MachineSnapshot

        machine = Machine(MachineConfig.small(seed=3))
        machine.run_until(20 * MS)
        snapshot = machine.snapshot()
        rehydrated = MachineSnapshot.from_bytes(snapshot.to_bytes())
        native, _ = snapshot.fork(seed=11)
        shipped, _ = rehydrated.fork(seed=11)
        native.run_until(100 * MS)
        shipped.run_until(100 * MS)
        assert native.stats() == shipped.stats()

    def test_rehydrated_fork_has_live_metrics(self):
        from repro.core.machine import MachineSnapshot

        machine = Machine(MachineConfig.small(seed=3))
        rehydrated = MachineSnapshot.from_bytes(machine.snapshot().to_bytes())
        fork, _ = rehydrated.fork()
        fork.run_until(20 * MS)
        assert fork.obs.metrics.snapshot()["sim.events.dispatched{queue=os}"] > 0


class TestPoolTelemetry:
    def test_register_pool_metrics_covers_the_documented_family(self):
        registry = MetricsRegistry(enabled=True)
        register_pool_metrics(registry)
        assert set(registry.family_names()) == {
            "campaign.pool.workers",
            "campaign.pool.attempts_dispatched",
            "campaign.pool.attempts_completed",
            "campaign.pool.mode",
            "campaign.pool.worker_wall_ns",
        }

    def test_make_pool_block_shape(self):
        block = make_pool_block(
            workers=2, mode="ship", dispatched=4, completed=4,
            worker_wall_ns={0: 10, 1: 20},
        )
        assert block["campaign.pool.workers"] == 2
        assert block["campaign.pool.attempts_dispatched"] == 4
        assert block["campaign.pool.attempts_completed"] == 4
        assert block["campaign.pool.mode{mode=ship}"] == 1
        assert block["campaign.pool.worker_wall_ns{worker=0}"] == 10
        assert block["campaign.pool.worker_wall_ns{worker=1}"] == 20


class TestChaosPlanPerAttempt:
    def test_pure_function_of_profile_seed_intensity(self):
        a = chaos_plan_for_attempt("storm", 1234)
        b = chaos_plan_for_attempt("storm", 1234)
        assert a == b

    def test_different_seeds_jitter_the_skip_counts(self):
        plans = {
            tuple(e.skip for e in chaos_plan_for_attempt("storm", seed).events)
            for seed in range(20)
        }
        assert len(plans) > 1

    def test_none_profile_stays_null(self):
        assert chaos_plan_for_attempt("none", 42).is_null


@pytest.mark.slow
class TestPooledCampaignParity:
    def test_worker_count_does_not_change_results(self):
        """Digest and merged metrics are identical for workers 1 and 2 —
        parallelism is an engine choice only."""
        config = vulnerable_config(seed=7)

        def run(**kwargs):
            return AttackCampaign(config, 2, attack_config=FAST, **kwargs).run()

        serial = run()
        ship = run(workers=2)
        assert serial.digest() == ship.digest()
        assert serial.metrics == ship.metrics
        assert ship.pool["campaign.pool.workers"] == 2
        assert ship.pool["campaign.pool.mode{mode=ship}"] == 1
        assert serial.pool["campaign.pool.mode{mode=serial}"] == 1
        # The in-memory serial run reports its one worker's wall time,
        # like the checkpointed serial run does.
        assert serial.pool["campaign.pool.worker_wall_ns{worker=0}"] > 0

    def test_out_of_order_completions_merge_in_attempt_order(self, monkeypatch):
        """A pool that delivers attempts out of order still merges them in
        attempt order: the run holds early states until their turn."""
        config = vulnerable_config(seed=7)
        delivered = []
        real_iter_pooled = pool_module.iter_pooled

        def rotated(campaign, indices, **kwargs):
            outcomes = sorted(real_iter_pooled(campaign, indices, **kwargs))
            for outcome in outcomes[1:] + outcomes[:1]:
                delivered.append(outcome[0])
                yield outcome

        def run(**kwargs):
            return AttackCampaign(
                config, 3, attack_config=FAST, chaos_profile="steal", **kwargs
            ).run()

        serial = run()
        # Per-attempt chaos makes some gauge differ across attempts, so a
        # merge in delivery order would show.
        gauges = [
            values
            for family in serial.metrics["families"].values()
            if family["kind"] == "gauge"
            for values in family["instances"].values()
        ]
        assert any(values != values[1:] + values[:1] for values in gauges)
        monkeypatch.setattr(pool_module, "iter_pooled", rotated)
        pooled = run(workers=2)
        assert delivered == [1, 2, 0]
        assert pooled.digest() == serial.digest()
        assert pooled.metrics == serial.metrics

    def test_chaos_campaign_digest_is_worker_independent(self):
        config = vulnerable_config(seed=7)

        def run(**kwargs):
            return AttackCampaign(
                config, 2, attack_config=FAST, chaos_profile="steal", **kwargs
            ).run()

        serial = run()
        pooled = run(workers=2)
        assert serial.digest() == pooled.digest()
        assert {report.chaos_profile for report in serial.reports} == {"steal"}
        # Per-attempt chaos plans derive from the attempt seed, so the
        # engine is attached (and its forensics present) in every report.
        assert all(
            report.chaos_events is not None for report in serial.reports
        )
