#!/usr/bin/env python
"""Cross-check docs/OBSERVABILITY.md against the declared telemetry.

Metric families are declared once, in ``repro.obs.schema.SCHEMA``; span
names are whatever ``src/`` emits.  The check verifies, in both
directions:

* every declared metric family has a row in the doc's metric tables,
  and every documented metric is declared;
* each row's kind and unit columns match the declaration, and its
  meaning column begins with the declared help string (no program
  output carries the help, so the doc row is where a reader finds it,
  and it must not go stale when the schema's help changes);
* every declared name is used as a string literal somewhere in ``src/``
  outside the schema module, so a stale declaration cannot linger;
* every span/instant name emitted in ``src/`` appears in the doc's
  trace-event table, and every documented span name is emitted.

Run from the repo root: ``PYTHONPATH=src python -m scripts.check_telemetry_docs``.
Exits 1 on any mismatch (CI and the tier-1 suite run this as the docs check).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "OBSERVABILITY.md"
SRC = REPO / "src" / "repro"
SCHEMA_MODULE = SRC / "obs" / "schema.py"

sys.path.insert(0, str(REPO / "src"))

from repro.obs.schema import SCHEMA  # noqa: E402

# Doc table rows: backticked dotted name, then the kind and third columns
# ("| `dram.flips` | counter | flips | ...").
_DOC_ROW = re.compile(
    r"^\|\s*`([a-z_][a-z0-9_.]+)`\s*\|\s*([^|]*?)\s*\|\s*([^|]*?)\s*\|", re.MULTILINE
)
# Metric rows: name, kind, unit, labels, meaning.
_METRIC_ROW = re.compile(
    r"^\|\s*`([a-z_][a-z0-9_.]+)`\s*\|\s*([^|]*?)\s*\|\s*([^|]*?)\s*\|[^|\n]*\|"
    r"\s*([^|\n]*?)\s*\|\s*$",
    re.MULTILINE,
)
# Emission sites: tracer.span("name"...) / .instant / .complete across
# line breaks ("name" is always the first string literal after the paren).
_EMIT = re.compile(r"tracer\.(?:span|instant|complete)\(\s*\n?\s*\"([a-z_.]+)\"")
_STRING_LITERAL = re.compile(r"\"([a-z_][a-z0-9_.]+)\"")


def _sources() -> dict[Path, str]:
    return {path: path.read_text(encoding="utf-8") for path in SRC.rglob("*.py")}


def emitted_span_names(sources: dict[Path, str]) -> set[str]:
    names = set()
    for path, text in sources.items():
        if path.parent.name != "obs":
            names.update(_EMIT.findall(text))
    return names


def used_metric_names(sources: dict[Path, str]) -> set[str]:
    """Dotted string literals in ``src/`` outside the schema module."""
    names = set()
    for path, text in sources.items():
        if path != SCHEMA_MODULE:
            names.update(_STRING_LITERAL.findall(text))
    return names


def main() -> int:
    text = DOC.read_text(encoding="utf-8")
    trace_part, _, metric_part = text.partition("## Metric families")
    doc_spans = {row[0] for row in _DOC_ROW.findall(trace_part)}
    doc_metrics = {
        name: (kind, unit, meaning)
        for name, kind, unit, meaning in _METRIC_ROW.findall(metric_part)
    }
    sources = _sources()
    spans = emitted_span_names(sources)
    used = used_metric_names(sources)

    problems = []
    # The CoW frame-store gauges are collector-backed and easy to lose in a
    # refactor of MemoryController's collector; pin the family explicitly.
    cow_family = {name for name in SCHEMA if name.startswith("dram.memory.cow.")}
    if len(cow_family) < 4:
        problems.append(
            "the dram.memory.cow.* family (4 gauges) is no longer declared; "
            f"found only {sorted(cow_family)}"
        )
    for missing in sorted(SCHEMA.keys() - doc_metrics.keys()):
        problems.append(f"metric {missing!r} is declared but not documented")
    for stale in sorted(doc_metrics.keys() - SCHEMA.keys()):
        problems.append(f"doc lists metric {stale!r} which is not declared")
    for name in sorted(SCHEMA.keys() & doc_metrics.keys()):
        spec, (kind, unit, meaning) = SCHEMA[name], doc_metrics[name]
        if kind.split()[0] != spec.kind:
            problems.append(f"metric {name!r}: doc kind {kind!r}, declared {spec.kind!r}")
        if unit != spec.unit:
            problems.append(f"metric {name!r}: doc unit {unit!r}, declared {spec.unit!r}")
        if not meaning.startswith(spec.help):
            problems.append(
                f"metric {name!r}: doc meaning {meaning!r} does not begin with "
                f"the declared help {spec.help!r}"
            )
    for unused in sorted(SCHEMA.keys() - used):
        problems.append(f"metric {unused!r} is declared but never used in src/")
    for missing in sorted(spans - doc_spans):
        problems.append(f"span {missing!r} is emitted but not documented")
    for stale in sorted(doc_spans - spans):
        problems.append(f"doc lists span {stale!r} which is never emitted")

    if problems:
        print(f"{DOC.relative_to(REPO)} is out of sync with the telemetry:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"telemetry contract OK: {len(SCHEMA)} metric families, "
        f"{len(spans)} span names documented"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
