"""``python -m bench --selftest``: the benchmark's own arithmetic, in about a second.

Covers the tail-percentile rule, the bound arithmetic and verdicts, the
calibrated-seconds arithmetic and program clock, the BENCHMARK.json naming
rules and caps, self-time sums on a synthetic call tree, and the parity
between BENCHMARK.json and the metrics the harness emits.  Needs no
``repro`` sources.
"""

from __future__ import annotations

import re
import sys
import time
import types
import unittest

from bench import calibrate, harness, stats
from bench.probes import NAMES, PROBES, LayerTracer, Probe
from bench.rep import COUNT_FAMILIES
from bench.workloads import PINNED_COUNTERS, WORKLOADS, load_inputs, pick_input

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class PercentileRule(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        self.assertEqual(stats.percentile(range(1, 257), 95), 244)  # 12 beyond
        self.assertIsNone(stats.percentile(range(32), 95))  # 1 beyond
        self.assertEqual(stats.percentile(range(1, 201), 95), 190)  # exactly 10 beyond
        self.assertIsNone(stats.percentile(range(1, 200), 95))  # 9 beyond

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 30.0]
        # Exclusive-method quartiles: Q1 = 10.5, Q3 = 21.5.
        self.assertAlmostEqual(stats.spread(values), (21.5 - 10.5) / 12.0)
        self.assertEqual(stats.spread([5.0]), 0.0)


class BoundArithmetic(unittest.TestCase):
    def test_share_or_time_floor_whichever_is_larger(self):
        self.assertAlmostEqual(stats.allowed_worsening(10.0, 0.10, "s"), 1.0)
        self.assertAlmostEqual(stats.allowed_worsening(0.2, 0.10, "s"), 0.05)
        self.assertAlmostEqual(stats.allowed_worsening(20.0, 0.10, "ms"), 50.0)
        self.assertAlmostEqual(stats.allowed_worsening(80.0, 0.10, "MiB"), 8.0)

    def test_verdicts(self):
        def verdict(base, new, better="lower", bound=0.10, unit="s"):
            return stats.verdict(base, new, bound=bound, unit=unit, better=better)

        self.assertEqual(verdict([10.0, 10.1, 10.2], [11.5, 11.6, 11.7]), "worse")
        self.assertEqual(verdict([10.0, 10.1, 10.2], [10.5, 10.6, 10.7]), "same")
        self.assertEqual(verdict([10.0, 10.1, 10.2], [8.0, 8.1, 8.2]), "better")
        self.assertEqual(verdict([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], better="higher"), "worse")
        # A noisy side leaves the verdict open unless every value beats every other.
        self.assertEqual(verdict([8.0, 10.0, 14.0], [12.0, 13.0, 16.0]), "unresolved")
        self.assertEqual(verdict([10.0, 12.0, 15.0], [6.0, 7.0, 9.0]), "better")
        # Under the 50 ms floor a small setup time never regresses.
        self.assertEqual(verdict([0.030, 0.031, 0.032], [0.060, 0.061, 0.062]), "same")


class Calibration(unittest.TestCase):
    def test_a_rep_on_a_slow_host_reads_as_at_nominal_speed(self):
        nominal = _synthetic_rep(256)
        slow = dict(nominal, wall_s=4.0, setup_s=1.0, attempt_s=[0.02] * 256,
                    ref_s=2 * calibrate.NOMINAL_S)
        self.assertEqual(harness.end_to_end([slow]), harness.end_to_end([nominal]))

    def test_the_program_clock_leaves_the_slices_out(self):
        inband = calibrate.InBand()
        with inband:
            spent, host, program = inband.spent, time.perf_counter(), inband.clock()
            while time.perf_counter() < host + 4.5 * calibrate.INTERVAL_S:
                pass
            host, program = time.perf_counter() - host, inband.clock() - program
        self.assertGreaterEqual(inband.slices, 4)
        self.assertAlmostEqual(host - program, inband.spent - spent, delta=1e-3)


class SpecRules(unittest.TestCase):
    def setUp(self):
        self.spec = harness.load_spec()

    def test_names_units_and_caps(self):
        spec = self.spec
        self.assertEqual(
            set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertEqual(NAME.fullmatch(name).group(), name)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertIsNotNone(UNIT.fullmatch(metric["unit"]), metric)
            self.assertIn(metric["better"], ("lower", "higher"))
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 <= metric["bound"] <= 0.25, metric)
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertTrue(len(workload["why"]) <= 200 and "\n" not in workload["why"])

    def test_setup_has_the_largest_bound(self):
        metrics = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = metrics["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in metrics.values()))

    def test_a_name_regex_rejects(self):
        for bad in ("_x", "a b", "x" * 65, "é", ""):
            self.assertIsNone(NAME.fullmatch(bad), bad)


def _synthetic_rep(attempts: int, traced: bool = False) -> dict:
    rep = {
        "code": 0,
        "wall_s": 2.0,
        "setup_s": 0.5,
        "attempt_s": [0.01] * attempts,
        "rss_mib": 50.0,
        "ref_s": calibrate.NOMINAL_S,
        "attempts": attempts,
        "successes": attempts,
        "digest": "0" * 64,
        "counts": {name: 1 for name in (*PINNED_COUNTERS, *COUNT_FAMILIES)},
    }
    if traced:
        rep["trace"] = {
            "wall_s": 3.0,
            "other_s": 0.5,
            "layers": {probe.layer: 2.5 / len(PROBES) for probe in PROBES},
            "probes": {name: {"calls": 1, "self_s": 2.5 / len(NAMES)} for name in NAMES},
            "spans": 0,
        }
    return rep


class MetricParity(unittest.TestCase):
    def test_emitted_end_to_end_metrics_are_the_spec(self):
        spec = harness.load_spec()
        for attempts in (1, 256):
            emitted = harness.end_to_end([_synthetic_rep(attempts)] * 3)
            self.assertEqual(set(emitted), {m["name"] for m in spec["end_to_end"]})
            self.assertTrue(all(value > 0 for value in emitted.values()))

    def test_spec_per_layer_metrics_are_emitted(self):
        spec = harness.load_spec()
        emitted = harness.per_layer(_synthetic_rep(1, traced=True), 2.0)
        missing = {m["name"] for m in spec["per_layer"]} - set(emitted)
        self.assertFalse(missing)
        self.assertLessEqual(len(emitted), 128)

    def test_workloads_and_inputs_match_the_spec(self):
        spec = harness.load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        inputs = load_inputs()
        for name in WORKLOADS:
            self.assertTrue(inputs[name], name)
            for entry in inputs[name]:
                self.assertEqual(len(entry["digest"]), 64)
                self.assertEqual(set(entry["counters"]), set(PINNED_COUNTERS))
            self.assertIs(pick_input(inputs, name, 7), pick_input(inputs, name, 7))


class SelfTime(unittest.TestCase):
    """Self times on a synthetic tree: outer -> 2 x (inner -> leaf), on a fake clock."""

    def test_self_times_sum_to_the_covered_wall(self):
        now = [0.0]

        def clock():
            return now[0]

        def tick(seconds):
            now[0] += seconds

        module = types.ModuleType("bench_selftest_tree")

        class Tree:
            def outer(self):
                tick(1.0)
                self.inner()
                tick(0.5)
                self.inner()

            def inner(self):
                tick(0.25)
                module.leaf()

        def leaf():
            tick(0.125)

        module.Tree, module.leaf = Tree, leaf
        sys.modules[module.__name__] = module
        probes = (
            Probe("a", "outer", module.__name__, "Tree", "outer", True),
            Probe("b", "inner", module.__name__, "Tree", "inner", False),
            Probe("c", "leaf", module.__name__, None, "leaf", False),
        )
        tracer = LayerTracer(probes, clock=clock)
        tracer.install()
        try:
            tick(2.0)  # untraced time before the tree
            tracer.open_attempt(0)
            start = clock()
            Tree().outer()
            tracer.close_attempt(start, clock())
            tick(0.25)
        finally:
            tracer.uninstall()
            del sys.modules[module.__name__]
        self.assertIs(module.leaf, leaf)
        summary = tracer.summary(wall_s=clock())
        self_s = {name: p["self_s"] for name, p in summary["probes"].items()}
        self.assertEqual(self_s, {"a.outer": 1.5, "b.inner": 0.5, "c.leaf": 0.25})
        self.assertEqual({name: p["calls"] for name, p in summary["probes"].items()},
                         {"a.outer": 1, "b.inner": 2, "c.leaf": 2})
        self.assertEqual(summary["other_s"], 2.25)
        self.assertEqual(sum(self_s.values()) + summary["other_s"], summary["wall_s"])
        # One span for outer, one for the attempt, each carrying attempt id 0.
        self.assertEqual(len(tracer.spans), 2)
        self.assertTrue(all(span[5] == 0 for span in tracer.spans))


def run() -> int:
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if result.wasSuccessful() else 1
