"""Tracer unit tests plus multi-layer machine traces and determinism."""

import json

import pytest

from repro.attack.explframe import ExplFrameAttack, ExplFrameConfig
from repro.attack.orchestrator import AttackOrchestrator, OrchestratorConfig
from repro.attack.templating import TemplatorConfig
from repro.core import Machine, MachineConfig
from repro.obs import NULL_SPAN, Tracer
from repro.sim.chaos import ChaosEngine, chaos_profile
from repro.sim.clock import SimClock
from repro.sim.errors import ConfigError
from repro.sim.units import MIB, SECOND


def make_tracer():
    clock = SimClock()
    return clock, Tracer(clock, enabled=True)


class TestSpans:
    def test_span_records_sim_time(self):
        clock, tracer = make_tracer()
        with tracer.span("outer", "test", foo=1) as span:
            clock.advance(100)
            span.set("bar", 2)
        (record,) = tracer.records
        assert record.start_ns == 0
        assert record.end_ns == 100
        assert record.args == {"foo": 1, "bar": 2}

    def test_nesting_depth(self):
        clock, tracer = make_tracer()
        with tracer.span("outer", "test"):
            clock.advance(10)
            with tracer.span("inner", "test"):
                clock.advance(10)
                tracer.instant("tick", "test")
        assert [(r.name, r.depth) for r in tracer.records] == [
            ("outer", 0),
            ("inner", 1),
            ("tick", 2),
        ]

    def test_instant_is_a_point(self):
        clock, tracer = make_tracer()
        clock.advance(7)
        tracer.instant("ping", "test", detail="x")
        (record,) = tracer.records
        assert record.kind == "instant"
        assert record.start_ns == record.end_ns == 7

    def test_complete_is_retroactive(self):
        clock, tracer = make_tracer()
        clock.advance(500)
        tracer.complete("attempt", "test", start_ns=100, end_ns=400, stage="steer")
        (record,) = tracer.records
        assert (record.start_ns, record.end_ns) == (100, 400)

    def test_exception_annotates_error(self):
        clock, tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", "test"):
                raise ValueError("nope")
        assert tracer.records[0].args["error"] == "ValueError"
        assert not tracer._stack

    def test_disabled_tracer_is_inert(self):
        clock = SimClock()
        tracer = Tracer(clock)
        assert tracer.span("x", "test") is NULL_SPAN
        tracer.instant("y", "test")
        tracer.complete("z", "test", 0, 1)
        assert tracer.records == []

    def test_enable_without_clock_rejected(self):
        tracer = Tracer()
        with pytest.raises(ConfigError):
            tracer.enable()


class TestExport:
    def populate(self):
        clock, tracer = make_tracer()
        with tracer.span("work", "cat", n=3):
            clock.advance(2_000)
            tracer.instant("mark", "cat")
            clock.advance(1_000)
        return tracer

    def test_chrome_structure(self):
        doc = self.populate().to_chrome(producer="repro test")
        assert doc["otherData"]["clockDomain"] == "simulated-ns"
        meta, span, instant = doc["traceEvents"]
        assert meta["ph"] == "M"
        assert span["ph"] == "X"
        assert (span["ts"], span["dur"]) == (0.0, 3.0)  # microseconds
        assert instant["ph"] == "i"
        assert instant["s"] == "t"

    def test_open_span_ends_now(self):
        clock, tracer = make_tracer()
        tracer.span("open", "cat")
        clock.advance(50)
        assert tracer.span_tuples() == [("span", "open", "cat", 0, 0, 50)]

    def test_write_formats(self, tmp_path):
        tracer = self.populate()
        chrome = tmp_path / "t.json"
        tracer.write(chrome)
        assert json.loads(chrome.read_text()) == tracer.to_chrome()

    def test_args_made_json_safe(self):
        clock, tracer = make_tracer()
        tracer.instant("x", "cat", data=b"\x01", ok=True)
        args = tracer.to_chrome()["traceEvents"][1]["args"]
        assert args == {"data": "b'\\x01'", "ok": True}


def traced_attack(seed):
    machine = Machine(
        MachineConfig(
            seed=seed,
            geometry=MachineConfig.small().geometry,
            flip_model=MachineConfig.vulnerable().flip_model,
        )
    )
    machine.obs.tracer.enable()
    ChaosEngine(machine.kernel, chaos_profile("steal"))
    attack = ExplFrameAttack(
        machine,
        config=ExplFrameConfig(
            templator=TemplatorConfig(
                buffer_bytes=2 * MIB, batch_pairs=4
            )
        ),
    )
    AttackOrchestrator(attack, OrchestratorConfig(deadline_ns=600 * SECOND)).run()
    return machine


class TestMachineTraces:
    def test_all_layers_present(self):
        machine = traced_attack(seed=7)
        cats = machine.obs.tracer.categories()
        assert {"dram", "mm", "os", "attack", "chaos"} <= cats

    def test_key_span_names_present(self):
        machine = traced_attack(seed=7)
        names = {r.name for r in machine.obs.tracer.records}
        assert {
            "attack.orchestrate",
            "attack.attempt",
            "attack.template",
            "dram.hammer",
            "chaos.plan",
        } <= names

    def test_determinism_same_seed_same_telemetry(self):
        first = traced_attack(seed=11)
        second = traced_attack(seed=11)
        assert first.obs.tracer.span_tuples() == second.obs.tracer.span_tuples()
        assert first.obs.metrics.snapshot() == second.obs.metrics.snapshot()
