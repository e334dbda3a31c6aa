"""Benchmark-suite fixtures.

Every experiment builds fresh machines from fixed seeds, so its table is
reproducible run-to-run.  A run writes it to the git-ignored
``benchmarks/results/latest/``; the checked-in ``benchmarks/results/*.txt``
are the record and change only by a deliberate copy from there.
"""

from __future__ import annotations

import pytest

from repro.core import Machine, MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry


def small_vulnerable(seed: int = 0) -> Machine:
    """The standard attack-experiment machine: 64 MiB, dense weak cells."""
    return Machine(
        MachineConfig(
            seed=seed,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
        )
    )


def stage_ok(report, stage: str) -> bool:
    """True when the run's timeline holds a successful ``stage`` attempt."""
    return any(
        record.stage == stage and record.outcome == "ok" for record in report.timeline
    )


@pytest.fixture
def machine() -> Machine:
    """Default 64 MiB machine."""
    return Machine(MachineConfig.small(seed=0))
