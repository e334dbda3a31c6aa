"""The telemetry-docs check: docs/OBSERVABILITY.md against the schema."""

import pytest

from repro.obs.schema import COUNTER, MetricSpec
from scripts import check_telemetry_docs


def test_observability_doc_matches_the_schema(capsys):
    assert check_telemetry_docs.main() == 0
    assert "telemetry contract OK" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, spec, problem",
    [
        ("dram.flips", MetricSpec(COUNTER, "bits", "changed unit"), "doc unit 'flips'"),
        ("dram.flips", MetricSpec("gauge", "flips", "changed kind"), "doc kind 'counter'"),
        ("x.never_used", MetricSpec(COUNTER, "x", "stale"), "never used in src/"),
        (
            "dram.flips",
            MetricSpec(COUNTER, "flips", "bit flips applied"),
            "doc meaning 'disturbance bit flips applied' does not begin with the "
            "declared help 'bit flips applied'",
        ),
    ],
)
def test_schema_drift_is_caught(monkeypatch, capsys, name, spec, problem):
    monkeypatch.setitem(check_telemetry_docs.SCHEMA, name, spec)
    assert check_telemetry_docs.main() == 1
    assert problem in capsys.readouterr().out


def test_undocumented_declaration_is_caught(monkeypatch, capsys):
    monkeypatch.setitem(
        check_telemetry_docs.SCHEMA, "dram.flips.extra", MetricSpec(COUNTER, "x", "new")
    )
    assert check_telemetry_docs.main() == 1
    assert "'dram.flips.extra' is declared but not documented" in capsys.readouterr().out


def test_undeclared_doc_row_is_caught(monkeypatch, capsys):
    monkeypatch.delitem(check_telemetry_docs.SCHEMA, "dram.flips")
    assert check_telemetry_docs.main() == 1
    assert "doc lists metric 'dram.flips' which is not declared" in capsys.readouterr().out
