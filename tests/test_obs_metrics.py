"""MetricsRegistry unit tests plus machine-level integration."""

import pytest

from repro.attack.explframe import ExplFrameAttack
from repro.core import Machine, MachineConfig
from repro.obs import (
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Observability,
)
from repro.obs.metrics import MetricStateAccumulator, metric_key
from repro.obs.schema import SCHEMA
from repro.sim.errors import ConfigError
from repro.sim.units import PAGE_SIZE
from repro.workload import WorkloadEngine, scenario_preset


class TestCounter:
    def test_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("dram.flips")
        counter.inc()
        counter.inc(4)
        assert registry.snapshot() == {"dram.flips": 5}

    def test_same_identity_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("dram.flips") is registry.counter("dram.flips")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dram.flips")
        with pytest.raises(ConfigError, match="declared as counter"):
            registry.gauge("dram.flips")
        with pytest.raises(ConfigError, match="declared as gauge"):
            registry.counter("campaign.service.journal_bytes")

    def test_undeclared_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError, match="not declared"):
            registry.counter("x.events")
        with pytest.raises(ConfigError, match="not declared"):
            registry.histogram("x.sizes")


class TestLabels:
    def test_labelled_instances_are_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("os.syscalls", labels={"call": "mmap"})
        b = registry.counter("os.syscalls", labels={"call": "munmap"})
        assert a is not b
        a.inc(2)
        b.inc(3)
        snap = registry.snapshot()
        assert snap["os.syscalls{call=mmap}"] == 2
        assert snap["os.syscalls{call=munmap}"] == 3

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.counter("os.syscalls", labels={"b": "2", "a": "1"})
        b = registry.counter("os.syscalls", labels={"a": "1", "b": "2"})
        assert a is b
        assert metric_key("os.syscalls", {"b": "2", "a": "1"}) == "os.syscalls{a=1,b=2}"

    def test_family_names_deduplicate_labels(self):
        registry = MetricsRegistry()
        registry.counter("os.syscalls", labels={"call": "mmap"})
        registry.counter("os.syscalls", labels={"call": "munmap"})
        assert registry.family_names() == ["os.syscalls"]

    def test_snapshot_sorts_by_family_then_key(self):
        """``a.b{..}`` sorts with family ``a.b``, before family ``a.bc``."""
        registry = MetricsRegistry()
        registry.counter("sim.events.scheduled")
        registry.counter("sim.events.dispatched", labels={"queue": "os"})
        registry.counter("sim.events.dispatched", labels={"queue": "dram"})
        assert list(registry.snapshot()) == [
            "sim.events.dispatched{queue=dram}",
            "sim.events.dispatched{queue=os}",
            "sim.events.scheduled",
        ]


class TestGauge:
    def test_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("campaign.service.journal_bytes")
        gauge.set(42)
        assert registry.snapshot()["campaign.service.journal_bytes"] == 42

    def test_collector_runs_at_snapshot(self):
        registry = MetricsRegistry()
        source = {"value": 0}
        registry.add_collector(lambda: {"sim.events.pending": source["value"]})
        source["value"] = 7
        assert registry.snapshot()["sim.events.pending"] == 7


class TestCollectors:
    """A collector returns ``{instance key: value}`` for declared gauges."""

    @staticmethod
    def _registry(source):
        registry = MetricsRegistry()
        registry.counter("sim.events.scheduled").inc(3)
        registry.add_collector(
            lambda: {
                "sim.events.pending": source["pending"],
                "dram.cache.hit_rate": source["rate"],
            }
        )
        return registry

    def test_collector_runs_at_every_read(self):
        source = {"pending": 0, "rate": 0.0}
        registry = self._registry(source)
        source["pending"] = 8
        assert registry.snapshot()["sim.events.pending"] == 8
        source["pending"] = 9
        rows = [row.split() for row in registry.render_table().splitlines()]
        assert ["sim.events.pending", "gauge", "9", "events"] in rows

    def test_values_read_as_gauges_with_schema_metadata(self):
        source = {"pending": 7, "rate": 0.25}
        registry = self._registry(source)
        assert registry.snapshot() == {
            "dram.cache.hit_rate": 0.25,
            "sim.events.pending": 7,
            "sim.events.scheduled": 3,
        }
        fold = MetricStateAccumulator()
        fold.add(registry.snapshot())
        families = fold.result()["families"]
        spec = SCHEMA["sim.events.pending"]
        assert families["sim.events.pending"] == {
            "kind": "gauge",
            "unit": spec.unit,
            "instances": {"sim.events.pending": [7]},
        }
        assert families["dram.cache.hit_rate"]["unit"] == "ratio"
        rows = registry.render_table().splitlines()[2:]
        assert [row.split() for row in rows] == [
            ["dram.cache.hit_rate", "gauge", "0.25", "ratio"],
            ["sim.events.pending", "gauge", "7", "events"],
            ["sim.events.scheduled", "counter", "3", "events"],
        ]
        assert registry.family_names() == [
            "dram.cache.hit_rate", "sim.events.pending", "sim.events.scheduled",
        ]

    def test_closed_registry_keeps_the_last_collected_values(self):
        source = {"pending": 7, "rate": 0.5}
        registry = self._registry(source)
        before = registry.snapshot()
        registry.close()
        source["pending"] = 99
        assert registry.snapshot()["sim.events.pending"] == 7
        assert registry.snapshot() == before

    def test_collector_registered_twice_runs_once(self):
        calls = []

        def collect():
            calls.append(1)
            return {"sim.events.pending": 4}

        registry = MetricsRegistry()
        registry.add_collector(collect)
        registry.add_collector(collect)
        assert registry.snapshot() == {"sim.events.pending": 4}
        assert len(calls) == 1

    def test_undeclared_or_non_gauge_key_rejected(self):
        for key in ("x.depth", "sim.events.scheduled"):
            registry = MetricsRegistry()
            registry.add_collector(lambda key=key: {key: 1})
            with pytest.raises(ConfigError):
                registry.snapshot()


class TestHistogram:
    def test_buckets_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("dram.hammer.activations_per_call")
        for value in (0, 50, 500, 5_000_000):
            histogram.observe(value)
        snap = registry.snapshot()["dram.hammer.activations_per_call"]
        assert snap["count"] == 4
        assert snap["sum"] == 5_000_550
        assert snap["buckets"] == {
            "le_0": 1, "le_100": 2, "le_1000": 3, "le_10000": 3,
            "le_100000": 3, "le_1000000": 3, "le_inf": 4,
        }

    def test_buckets_must_ascend(self):
        """Declared in the schema: ascending, and only on histograms."""
        for name, spec in SCHEMA.items():
            if spec.kind == "histogram":
                assert spec.buckets and list(spec.buckets) == sorted(spec.buckets), name
            else:
                assert spec.buckets == (), name


class TestDisabledRegistry:
    def test_returns_null_singletons(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("dram.flips") is NULL_COUNTER
        assert registry.gauge("campaign.service.journal_bytes") is NULL_GAUGE
        assert registry.histogram("attack.stage.duration_ns") is NULL_HISTOGRAM
        with pytest.raises(ConfigError, match="not declared"):
            registry.counter("x.events")

    def test_null_mutators_are_noops(self):
        NULL_COUNTER.inc()
        NULL_GAUGE.set(5)
        NULL_HISTOGRAM.observe(5)

    def test_snapshot_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("dram.flips").inc()
        calls = []
        registry.add_collector(lambda: calls.append(1) or {"sim.events.pending": 1})
        assert registry.snapshot() == {}
        assert registry.render_table() == "(metrics disabled)"
        assert calls == []


def _small_workload(machine):
    kernel = machine.kernel
    task = kernel.spawn("workload", cpu=0)
    va = kernel.sys_mmap(task.pid, 32 * PAGE_SIZE)
    for index in range(32):
        kernel.mem_write(task.pid, va + index * PAGE_SIZE, b"x")
    kernel.sys_munmap(task.pid, va, 32 * PAGE_SIZE)
    return task


class TestMachineIntegration:
    def test_layers_report(self):
        machine = Machine(MachineConfig.small(seed=3))
        _small_workload(machine)
        snap = machine.obs.metrics.snapshot()
        assert snap["os.syscalls{call=mmap}"] == 1
        assert snap["os.syscalls{call=munmap}"] == 1
        assert snap["os.page_faults"] == 32
        assert snap["mm.pcp.hits"] + snap["mm.pcp.misses"] == 32
        assert snap["dram.activations"] > 0
        assert snap["cpu_cache.misses"] > 0
        assert snap["sim.clock_ns"] == machine.clock.now_ns

    def test_render_table_lists_families(self):
        machine = Machine(MachineConfig.small(seed=3))
        table = machine.obs.metrics.render_table()
        for name in ("dram.activations", "mm.free_pages", "os.page_faults"):
            assert name in table

    def test_disabled_machine_behaves_identically(self):
        on = Machine(MachineConfig.small(seed=5))
        off = Machine(MachineConfig(seed=5, geometry=on.config.geometry,
                                    metrics_enabled=False))
        _small_workload(on)
        _small_workload(off)
        assert off.obs.metrics.snapshot() == {}
        assert vars(on.kernel.stats) == vars(off.kernel.stats)
        assert on.clock.now_ns == off.clock.now_ns
        assert on.controller.total_activations() == off.controller.total_activations()

    def test_rebound_tenant_workload_registers_one_collector(self):
        # The engine binds itself to the machine's hub; the attack re-binds
        # its tenant workload to the same hub.
        machine = Machine(MachineConfig.small(seed=7))
        engine = WorkloadEngine(machine, scenario_preset("duet"))
        metrics = machine.obs.metrics
        before = metrics.snapshot()
        ExplFrameAttack(machine, tenant_workload=engine)
        assert metrics._collectors.count(engine._metric_values) == 1
        after = metrics.snapshot()
        workload = [key for key in before if key.startswith("workload.")]
        assert workload and all(after[key] == before[key] for key in workload)
        assert {
            key: value for key, value in after.items()
            if key.partition("{")[0] == "workload.tenant.queue_depth"
        } == {
            metric_key("workload.tenant.queue_depth", {"tenant": name}): 0
            for name in sorted(engine.tenants)
        }

    def test_default_observability_hub(self):
        obs = Observability()
        assert obs.metrics.enabled
        assert not obs.tracer.enabled
