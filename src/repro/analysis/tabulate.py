"""Plain-text table rendering and result persistence.

The benchmarks print each experiment's table to stdout *and* write it
under the git-ignored ``benchmarks/results/latest/``, to survive pytest's
output capturing.  The checked-in ``benchmarks/results/*.txt`` are the
record; a deliberate re-measure copies a table over from there.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone


def format_table(
    headers: list[str],
    rows: list[list[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    if not headers:
        raise ValueError("need at least one column")
    cells = [[str(value) for value in row] for row in rows]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in cells)) if cells else len(headers[col])
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def results_dir() -> str:
    """The benchmarks/results/latest directory (created on demand)."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__))))
    path = os.path.join(here, "benchmarks", "results", "latest")
    os.makedirs(path, exist_ok=True)
    return path


def write_results(experiment_id: str, text: str, echo: bool = True) -> str:
    """Persist an experiment table; returns the file path written."""
    path = os.path.join(results_dir(), f"{experiment_id}.txt")
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# experiment {experiment_id} — written {stamp}\n\n")
        handle.write(text)
        handle.write("\n")
    if echo:
        print(f"\n{text}\n[written to {path}]")
    return path
