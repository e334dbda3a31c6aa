"""Public API: machine construction and the high-level attack driver.

Typical use::

    from repro.core import Machine, MachineConfig
    from repro.attack import AttackOrchestrator, ExplFrameAttack

    machine = Machine(MachineConfig.vulnerable(seed=7))
    report = AttackOrchestrator(ExplFrameAttack(machine)).run()
    assert report.success
"""

from repro.core.config import MachineConfig
from repro.core.machine import Machine, MachineSnapshot
from repro.core.results import SteeringResult, TemplatingResult

__all__ = [
    "Machine",
    "MachineConfig",
    "MachineSnapshot",
    "SteeringResult",
    "TemplatingResult",
]
