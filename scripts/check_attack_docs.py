#!/usr/bin/env python
"""Cross-check docs/ATTACKS.md (and the docs index) against the code.

Three checks, all CI-fatal:

* **Knob tables.**  Every table in docs/ATTACKS.md preceded by a
  ``<!-- knob-table: NAME -->`` marker is compared against the
  registered modality's config dataclass: the documented knob set must
  exactly equal the fields NAME adds on top of the base
  ``ExplFrameConfig``, and each documented default must match the
  dataclass default.
* **Metric tables.**  Every ``<!-- metric-table: NAME -->`` table is
  compared against the metric families that building NAME's attack
  registers beyond what a plain explframe attack registers.
* **Links.**  Every relative markdown link in docs/INDEX.md, the other
  contract docs, README.md and EXPERIMENTS.md must resolve to a file in
  the repository.

Run from the repo root: ``PYTHONPATH=src python -m scripts.check_attack_docs``.
Exits 1 on any mismatch (CI runs this next to check_telemetry_docs).
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ATTACKS_DOC = REPO / "docs" / "ATTACKS.md"
LINKED_DOCS = (
    REPO / "docs" / "INDEX.md",
    REPO / "docs" / "ATTACKS.md",
    REPO / "docs" / "CAMPAIGNS.md",
    REPO / "docs" / "OBSERVABILITY.md",
    REPO / "docs" / "SCENARIOS.md",
    REPO / "README.md",
    REPO / "EXPERIMENTS.md",
)

sys.path.insert(0, str(REPO / "src"))

from repro.attack.explframe import ExplFrameConfig  # noqa: E402
from repro.attack.registry import get_modality  # noqa: E402
from repro.attack.templating import TemplatorConfig  # noqa: E402
from repro.core import Machine, MachineConfig  # noqa: E402
from repro.sim.units import MIB  # noqa: E402

#: A marker comment followed by one markdown table (header, rule, rows).
_MARKED_TABLE = re.compile(
    r"<!--\s*(knob|metric)-table:\s*([a-z0-9_-]+)\s*-->\s*\n((?:\|[^\n]*\n)+)"
)
#: First backticked name in a table row.
_ROW_NAME = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*(`[^`]*`)?", re.MULTILINE)
#: Markdown links; scheme-less targets are repo-relative files.
_LINK = re.compile(r"\[[^][]*\]\(([^)#\s]+)(?:#[^)]*)?\)")


def _marked_tables(text: str) -> list[tuple[str, str, str]]:
    return [(m.group(1), m.group(2), m.group(3)) for m in _MARKED_TABLE.finditer(text)]


def _small_config(modality_name: str):
    config = get_modality(modality_name).config_class()
    return dataclasses.replace(
        config, templator=TemplatorConfig(buffer_bytes=2 * MIB)
    )


def _registered_families(modality_name: str) -> set[str]:
    machine = Machine(MachineConfig.small(seed=0))
    get_modality(modality_name)(machine, config=_small_config(modality_name))
    return set(machine.obs.metrics.family_names())


def _normalize_default(text: str) -> str:
    return text.strip().strip("`").strip("\"'")


def check_knob_table(name: str, table: str, problems: list[str]) -> None:
    config = get_modality(name).config_class()
    base_fields = {f.name for f in dataclasses.fields(ExplFrameConfig)}
    own_fields = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if f.name not in base_fields or type(config) is ExplFrameConfig
    }
    documented: dict[str, str] = {}
    for row in _ROW_NAME.finditer(table):
        knob, default = row.group(1), row.group(2) or ""
        if knob in ("knob",):  # header row
            continue
        documented[knob] = _normalize_default(default)
    for missing in sorted(set(own_fields) - set(documented)):
        problems.append(
            f"knob-table {name}: config field {missing!r} is not documented"
        )
    for stale in sorted(set(documented) - set(own_fields)):
        problems.append(
            f"knob-table {name}: documented knob {stale!r} is not a "
            f"{type(config).__name__} field"
        )
    for knob in sorted(set(documented) & set(own_fields)):
        actual = own_fields[knob]
        if documented[knob] not in (
            _normalize_default(repr(actual)),
            _normalize_default(str(actual)),
        ):
            problems.append(
                f"knob-table {name}: {knob!r} documents default "
                f"{documented[knob]!r} but the dataclass default is {actual!r}"
            )


def check_metric_table(name: str, table: str, problems: list[str]) -> None:
    documented = {
        row.group(1)
        for row in _ROW_NAME.finditer(table)
        if row.group(1) != "metric"
    }
    extra = _registered_families(name) - _registered_families("explframe")
    for missing in sorted(extra - documented):
        problems.append(
            f"metric-table {name}: family {missing!r} is registered by the "
            f"modality but not documented"
        )
    for stale in sorted(documented - extra):
        problems.append(
            f"metric-table {name}: doc lists {stale!r} which the modality "
            f"does not register"
        )


def check_links(problems: list[str]) -> int:
    checked = 0
    for doc in LINKED_DOCS:
        text = doc.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if ":" in target.split("/")[0]:  # http:, https:, mailto:
                continue
            checked += 1
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO)}: link target {target!r} "
                    f"does not exist"
                )
    return checked


def main() -> int:
    problems: list[str] = []
    tables = _marked_tables(ATTACKS_DOC.read_text(encoding="utf-8"))
    if not tables:
        problems.append("docs/ATTACKS.md has no marked knob/metric tables")
    for kind, name, table in tables:
        try:
            get_modality(name)
        except Exception as exc:  # unknown modality name in a marker
            problems.append(f"{kind}-table marker names {name!r}: {exc}")
            continue
        if kind == "knob":
            check_knob_table(name, table, problems)
        else:
            check_metric_table(name, table, problems)
    links = check_links(problems)

    if problems:
        print("attack docs are out of sync with the code:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"attack docs OK: {len(tables)} marked tables verified, "
        f"{links} relative links resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
