#!/usr/bin/env python
"""Fail when ``src/repro`` defines a function, method or class nothing calls.

A definition is *reached* when its name occurs somewhere in the program
files (``src/``, ``bench/``, ``benchmarks/``, ``examples/``, ``scripts/``)
other than its own ``def``/``class`` line and a package ``__init__``
re-export (``from ... import`` lists and ``__all__``).  An occurrence is a
name token in code, or a string literal that is exactly the name (the
``getattr`` dispatch sites look names up that way).  Words in comments and
docstrings do not count, and neither do the tests: code that only a test
calls is not part of the program the tests are meant to check.

Dunder methods are exempt (Python calls them), and so is ``KEEP`` below.
A ``KEEP`` name that matches no ``def``/``class`` in ``src/repro`` fails the
check too, so the list cannot outlive the code it keeps.

Run from the repo root: ``python -m scripts.check_unreached``.
Exits 1 and lists each unreached definition with its file and line, and
each stale ``KEEP`` name.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
SCANNED = ("src", "bench", "benchmarks", "examples", "scripts")

KEEP = frozenset(
    {
        # Read-only observers: the tests inspect simulator state through
        # these instead of reaching into private fields.
        "count_state", "is_free", "owned_by", "lru_order", "capacity_bytes",
        "flush_all", "activations_in_window", "hammered_rows", "is_tracked",
        "flips_in_pfn", "is_materialized", "is_shared", "largest_free_order",
        "split_va", "candidates_per_position", "most_frequent", "resident_pfns",
        "node_of_pfn", "reclaimable_pages", "pending_zones", "span_tuples",
        "disable", "landing_index", "flipped_value", "pages_for_bytes",
        "holds", "background", "max_activations_per_window",
        # The clflush system call: its os.syscalls{call=clflush} label is
        # part of the documented telemetry (docs/OBSERVABILITY.md).
        "sys_clflush",
        # Pickler/Unpickler hooks, which the pickle module calls by name.
        "persistent_id", "persistent_load",
        # Documented extension point: the protocol a new attack modality
        # implements (docs/ATTACKS.md).
        "AttackRun",
    }
)

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
_DUNDER = re.compile(r"__\w+__\Z")


def _program_files() -> list[Path]:
    return sorted(
        path
        for top in SCANNED
        if (REPO / top).is_dir()
        for path in (REPO / top).rglob("*.py")
    )


def _skipped(tree: ast.Module, package_init: bool) -> set[int]:
    """Ids of nodes that name a definition without using it.

    Docstrings and other bare string statements, every ``__all__`` list,
    and a package ``__init__``'s top-level imports (its re-exports).
    """
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            skipped.update(id(child) for child in ast.walk(node.value))
    if package_init:
        skipped.update(
            id(node) for node in tree.body if isinstance(node, ast.ImportFrom)
        )
    return skipped


def _references(tree: ast.Module, package_init: bool) -> set[str]:
    """Names the module uses: in code, imports and identifier strings."""
    skipped = _skipped(tree, package_init)
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and id(node) not in skipped:
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and _IDENTIFIER.match(node.value)
        ):
            names.add(node.value)
    return names


def unreached() -> list[str]:
    definitions: list[tuple[str, Path, int]] = []
    referenced: set[str] = set()
    for path in _program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        referenced |= _references(tree, path.name == "__init__.py")
        if SRC in path.parents:
            definitions.extend(
                (node.name, path, node.lineno)
                for node in ast.walk(tree)
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            )
    defined = {name for name, _, _ in definitions}
    return [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for name, path, line in definitions
        if name not in referenced and name not in KEEP and not _DUNDER.match(name)
    ] + [f"scripts/check_unreached.py: KEEP: {name}" for name in sorted(KEEP - defined)]


def main() -> int:
    problems = unreached()
    if problems:
        print(
            "defined in src/repro but reached only from tests (or not at all),"
            " or kept but defined nowhere:"
        )
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("reachability OK: every src/repro definition is used outside tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
