"""repro — reproduction of *ExplFrame: Exploiting Page Frame Cache for
Fault Analysis of Block Ciphers* (Chakraborty et al., DATE 2020) on a
fully simulated substrate.

The package layers bottom-up:

* :mod:`repro.sim` — seeded randomness and simulated time;
* :mod:`repro.dram` — DRAM geometry, row buffers, refresh and the
  Rowhammer disturbance model;
* :mod:`repro.mm` — the Linux allocator stack: buddy system, zones,
  zonelists and the per-CPU page frame cache;
* :mod:`repro.vm` / :mod:`repro.os` — page tables, address spaces,
  tasks, scheduler, syscalls and the capability-gated pagemap;
* :mod:`repro.ciphers` — AES and PRESENT with memory-resident tables;
* :mod:`repro.pfa` — persistent fault analysis and a DFA baseline;
* :mod:`repro.attack` — templating, page-frame-cache steering, and the
  end-to-end ExplFrame attack with its baselines;
* :mod:`repro.core` — :class:`~repro.core.machine.Machine` assembly and
  result types;
* :mod:`repro.analysis` — statistics and table helpers for the experiment
  benchmarks.

Quickstart::

    from repro import AttackOrchestrator, ExplFrameAttack, Machine, MachineConfig

    machine = Machine(MachineConfig.vulnerable(seed=7))
    report = AttackOrchestrator(ExplFrameAttack(machine)).run()
    print(report.success, report.faulty_ciphertexts)
"""

from repro.attack import (
    AttackOrchestrator,
    ExplFrameAttack,
    ExplFrameConfig,
    Hammerer,
    PagemapAttack,
    RandomSprayAttack,
    SteeringProtocol,
    SteeringTrialConfig,
    Templator,
    TemplatorConfig,
)
from repro.core import (
    Machine,
    MachineConfig,
    SteeringResult,
    TemplatingResult,
)

__version__ = "1.1.0"


def package_version() -> str:
    """The installed package version, falling back to the source default.

    Reads importlib metadata so an installed wheel reports its real
    version; from a source checkout (not installed) the module constant
    is used.  The metadata scan costs milliseconds and megabytes, so its
    two callers resolve it only when the string is printed:
    ``repro --version`` (the parser's version action) and the producer
    of an ``attack --trace`` file (``repro.cli._emit_observability``).
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover - ancient interpreters only
        return __version__
    try:
        return version("repro")
    except PackageNotFoundError:
        return __version__

__all__ = [
    "AttackOrchestrator",
    "ExplFrameAttack",
    "ExplFrameConfig",
    "Hammerer",
    "Machine",
    "MachineConfig",
    "PagemapAttack",
    "RandomSprayAttack",
    "SteeringProtocol",
    "SteeringResult",
    "SteeringTrialConfig",
    "TemplatingResult",
    "Templator",
    "TemplatorConfig",
    "__version__",
    "package_version",
]
