#!/usr/bin/env python
"""Check fresh experiment tables against the checked-in record.

An experiment bench writes its tables to the git-ignored
``benchmarks/results/latest/<name>.txt``; the checked-in
``benchmarks/results/<name>.txt`` is the record of the paper's tables.
Every cell of every table, and every line of text between the tables,
must equal the record, except:

* the ``# experiment ... written <time>`` stamp line;
* the host-time columns in :data:`HOST_TIME_COLUMNS`, which measure the
  machine running the bench, not the simulation.

Cells are cut at the column starts of each file's own dash rule, so a
host-time cell of another width does not shift the cells after it.

Run from the repo root after the benches, naming the tables:
``python -m scripts.check_bench_tables t1_reuse_probability t4_end_to_end``.
Exits 1 on any mismatch or missing table.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RECORD = REPO / "benchmarks" / "results"
LATEST = RECORD / "latest"

#: Host wall-time columns, by table file and column header.  Every other
#: column of the checked tables is a function of the seeds.
HOST_TIME_COLUMNS: dict[str, tuple[str, ...]] = {
    "t13_faultprobe": ("wall-clock",),
    "t14_evictframe": ("wall-clock",),
}

_STAMP = "# experiment "
_RULE = re.compile(r"^-+(?:  -+)*\s*$")


def _cells(line: str, starts: list[int]) -> tuple[str, ...]:
    bounds = starts[1:] + [None]
    return tuple(line[start:end].strip() for start, end in zip(starts, bounds))


def _is_row(line: str, starts: list[int]) -> bool:
    """True when two spaces precede every column start (cells are padded)."""
    padded = line.ljust(starts[-1])
    return all(padded[start - 2:start] == "  " for start in starts[1:])


def parse(text: str) -> list[tuple[tuple[str, ...] | None, tuple[str, ...]]]:
    """Each line as (its table's header, its cells), or (None, (text,)).

    A table is a header line over a dash rule; its rows run to the next
    blank line, and a line in that run that is not cut into padded cells
    (a note under the table) stays whole text.
    """
    lines = [line for line in text.splitlines() if not line.startswith(_STAMP)]
    parsed = []
    header = starts = None
    for index, line in enumerate(lines):
        if not line.strip():
            header = starts = None
        elif index + 1 < len(lines) and _RULE.match(lines[index + 1]):
            starts = [match.start() for match in re.finditer(r"-+", lines[index + 1])]
            header = _cells(line, starts)
            parsed.append((None, header))
            continue
        elif starts is not None and _RULE.match(line):
            continue
        elif starts is not None and _is_row(line, starts):
            parsed.append((header, _cells(line, starts)))
            continue
        parsed.append((None, (line.rstrip(),)))
    return parsed


def compare(name: str) -> list[str]:
    """Problems with table ``name``'s fresh copy (empty when it matches)."""
    record, latest = RECORD / f"{name}.txt", LATEST / f"{name}.txt"
    for path in (record, latest):
        if not path.is_file():
            return [f"{name}: {path.relative_to(REPO)} is missing"]
    skipped = HOST_TIME_COLUMNS.get(name, ())
    expected = parse(record.read_text(encoding="utf-8"))
    fresh = parse(latest.read_text(encoding="utf-8"))
    problems = []
    headers = {header for header, _ in expected if header is not None}
    for column in skipped:
        if not any(column in header for header in headers):
            problems.append(f"{name}: host-time column {column!r} is in no table")
    if len(expected) != len(fresh):
        problems.append(f"{name}: {len(fresh)} lines, the record has {len(expected)}")
    for number, ((header, want), (fresh_header, got)) in enumerate(
        zip(expected, fresh), start=1
    ):
        if header != fresh_header:
            problems.append(f"{name} line {number}: header {fresh_header}, record {header}")
            continue
        for column, (want_cell, got_cell) in enumerate(zip(want, got)):
            title = header[column] if header else "text"
            if title in skipped:
                continue
            if want_cell != got_cell:
                problems.append(
                    f"{name} line {number}, column {title!r}: {got_cell!r}, "
                    f"record {want_cell!r}"
                )
        if len(want) != len(got):
            problems.append(f"{name} line {number}: {len(got)} cells, record {len(want)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    if not names:
        print("usage: python -m scripts.check_bench_tables NAME [NAME ...]")
        return 2
    problems = []
    for name in names:
        found = compare(name)
        problems += found
        skipped = ", ".join(HOST_TIME_COLUMNS.get(name, ())) or "none"
        status = "differs" if found else "matches the record"
        print(f"{name}: {status} (host-time columns skipped: {skipped})")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
