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
from repro.obs.schema import SCHEMA
from repro.sim.chaos import chaos_plan_for_attempt
from repro.sim.errors import ConfigError
from repro.sim.units import MIB, MS
from tests.metric_states import COUNTER_KEY, GAUGE_KEY, HISTOGRAM_KEY, metric_state

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
    @staticmethod
    def _state(counter=0, gauge=None, observations=()):
        return metric_state(
            counter=counter or None, gauge=gauge, observations=observations
        )

    def test_counters_sum_across_states(self):
        states = [self._state(counter=2), self._state(counter=5)]
        merged = merge(states)
        assert merged["sources"] == 2
        assert merged["families"][COUNTER_KEY]["instances"][COUNTER_KEY] == 7

    def test_gauges_list_one_value_per_source_in_order(self):
        states = [
            self._state(gauge=3),
            self._state(),  # gauge absent here
            self._state(gauge=9),
        ]
        merged = merge(states)
        assert merged["families"][GAUGE_KEY]["instances"][GAUGE_KEY] == [3, None, 9]

    def test_histograms_add_bucket_wise(self):
        states = [
            self._state(observations=(0, 50)),
            self._state(observations=(500,)),
        ]
        value = merge(states)["families"][HISTOGRAM_KEY]["instances"][HISTOGRAM_KEY]
        assert value["count"] == 3
        assert value["sum"] == 550
        assert value["buckets"] == {
            "le_0": 1, "le_100": 2, "le_1000": 3, "le_10000": 3,
            "le_100000": 3, "le_1000000": 3, "le_inf": 3,
        }

    def test_kind_conflict_is_rejected(self):
        """Journal records are outside input: each value must fit its declared kind."""
        histogram = self._state(observations=(5,))[HISTOGRAM_KEY]
        for key, value in (
            (COUNTER_KEY, 1.5),
            (COUNTER_KEY, True),
            (COUNTER_KEY, [1]),
            (COUNTER_KEY, histogram),
            (GAUGE_KEY, "7"),
            (GAUGE_KEY, None),
            (GAUGE_KEY, [7]),
            (HISTOGRAM_KEY, 3),
        ):
            with pytest.raises(ConfigError, match="cannot hold"):
                merge([self._state(counter=1), {key: value}])
        with pytest.raises(ConfigError, match="must be a dict"):
            merge([[COUNTER_KEY, 1]])

    def test_undeclared_family_is_rejected(self):
        for key in ("t.count", "t.count{x=1}"):
            with pytest.raises(ConfigError, match="not declared"):
                merge([{key: 1}])

    def test_histogram_bucket_mismatch_is_rejected(self):
        good = self._state(observations=(1,))[HISTOGRAM_KEY]
        other_bounds = {"count": 1, "sum": 1,
                        "buckets": {"le_1": 1, "le_2": 1, "le_inf": 1}}
        missing_bucket = {**good, "buckets": dict(list(good["buckets"].items())[1:])}
        for bad in (
            other_bounds,
            missing_bucket,
            {"count": 1, "buckets": good["buckets"]},
            {**good, "min": 1},
            {**good, "buckets": {**good["buckets"], "le_inf": 1.0}},
        ):
            with pytest.raises(ConfigError, match="cannot hold"):
                merge([{HISTOGRAM_KEY: good}, {HISTOGRAM_KEY: bad}])

    def test_merge_matches_single_registry_snapshot_semantics(self):
        """Merging one state renders exactly like the live snapshot."""
        registry = MetricsRegistry(enabled=True)
        registry.counter("dram.flips").inc(3)
        registry.gauge("campaign.service.journal_bytes").set(4)
        histogram = registry.histogram("dram.hammer.activations_per_call")
        for value in (5, 500):
            histogram.observe(value)
        merged = merge([registry.snapshot()])
        live = registry.snapshot()
        for name in ("dram.flips", "dram.hammer.activations_per_call"):
            assert merged["families"][name]["instances"][name] == live[name]
        gauge = "campaign.service.journal_bytes"
        assert merged["families"][gauge]["instances"][gauge] == [live[gauge]]

    def test_streaming_fold_renders_the_whole_block(self):
        """One state at a time, the accumulator renders every family."""
        states = [
            self._state(counter=2, gauge=1, observations=(5,)),
            self._state(counter=3, observations=(50, 500)),
            self._state(gauge=9),
        ]
        accumulator = MetricStateAccumulator()
        for count, state in enumerate(states):
            assert accumulator.sources == count
            accumulator.add(state)
        assert accumulator.result() == {
            "sources": 3,
            "families": {
                "dram.activations": {"kind": "gauge", "unit": "activations",
                                     "instances": {"dram.activations": [1, None, 9]}},
                "dram.flips": {"kind": "counter", "unit": "flips",
                               "instances": {"dram.flips": 5}},
                "dram.hammer.activations_per_call": {
                    "kind": "histogram", "unit": "activations", "instances": {
                        "dram.hammer.activations_per_call": {
                            "count": 3, "sum": 555, "buckets": {
                                "le_0": 0, "le_100": 2, "le_1000": 3,
                                "le_10000": 3, "le_100000": 3,
                                "le_1000000": 3, "le_inf": 3}},
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
    @staticmethod
    def _block(workers=2, wall_by_pid=None):
        campaign = AttackCampaign(vulnerable_config(), 4, workers=workers)
        return campaign._pool_block(
            owned=4, dispatched=4, completed=4,
            wall_by_pid={4242: 20, 17: 10} if wall_by_pid is None else wall_by_pid,
        )

    def test_pool_block_covers_the_documented_family(self):
        assert {key.partition("{")[0] for key in self._block()} == {
            "campaign.pool.workers",
            "campaign.pool.attempts_dispatched",
            "campaign.pool.attempts_completed",
            "campaign.pool.mode",
            "campaign.pool.worker_wall_ns",
        }
        assert all(
            SCHEMA[key.partition("{")[0]].kind in ("counter", "gauge")
            for key in self._block()
        )

    def test_pool_block_reads_like_a_registry_snapshot(self):
        """Same keys, order and values as the family set on a registry."""
        block = self._block(wall_by_pid={pid: pid for pid in range(12)})
        registry = MetricsRegistry(enabled=True)
        for key, value in block.items():
            name, _, label = key.partition("{")
            labels = dict([label.rstrip("}").split("=")]) if label else None
            if SCHEMA[name].kind == "counter":
                registry.counter(name, labels).inc(value)
            else:
                registry.gauge(name, labels).set(value)
        assert list(registry.snapshot().items()) == list(block.items())

    def test_pool_block_shape(self):
        block = self._block()
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
