"""Deterministic simulation kernel.

Every stochastic component of the reproduction draws randomness from a
named stream derived from a single master seed (:class:`RngStreams`), and
every timed component reads a shared :class:`SimClock`.  Together they make
whole-machine runs reproducible bit-for-bit.

:mod:`repro.sim.chaos` injects seeded adversity (threshold drift,
allocation pressure, migrations, TRR bursts) into the same deterministic
framework.
"""

from repro.sim.chaos import (
    CHAOS_PROFILES,
    ChaosEngine,
    ChaosEvent,
    ChaosPlan,
    ChaosRecord,
    chaos_profile,
)
from repro.sim.clock import SimClock
from repro.sim.errors import (
    AllocationError,
    ConfigError,
    FaultError,
    OutOfMemoryError,
    ReproError,
    SegmentationFault,
    TemplatingExhaustedError,
)
from repro.sim.events import EventHandle, EventScheduler
from repro.sim.rng import RngStreams
from repro.sim.units import (
    GIB,
    KIB,
    MIB,
    MS,
    NS,
    PAGE_SHIFT,
    PAGE_SIZE,
    SECOND,
    US,
)

__all__ = [
    "AllocationError",
    "CHAOS_PROFILES",
    "ChaosEngine",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosRecord",
    "ConfigError",
    "EventHandle",
    "EventScheduler",
    "FaultError",
    "GIB",
    "KIB",
    "MIB",
    "MS",
    "NS",
    "OutOfMemoryError",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "ReproError",
    "RngStreams",
    "SECOND",
    "SegmentationFault",
    "SimClock",
    "TemplatingExhaustedError",
    "US",
    "chaos_profile",
]
