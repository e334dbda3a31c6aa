"""Whole-machine configuration.

One frozen dataclass collects every substrate's knobs, with presets for
the shapes the experiments use.  Everything is seeded from one integer, so
a :class:`~repro.core.machine.Machine` is a pure function of its config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.cache import CpuCacheConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.ecc import EccConfig
from repro.dram.geometry import DRAMGeometry
from repro.dram.timing import DRAMTiming
from repro.dram.trr import TrrConfig
from repro.defense.watchdog import WatchdogConfig
from repro.mm.pcp import PcpConfig
from repro.mm.zone import ZoneLayout
from repro.sim.errors import ConfigError


@dataclass(frozen=True)
class MachineConfig:
    """Every tunable of the simulated machine, in one place."""

    seed: int = 0
    num_cpus: int = 2
    num_nodes: int = 1
    geometry: DRAMGeometry = field(default_factory=DRAMGeometry.default)
    timing: DRAMTiming = field(default_factory=DRAMTiming.ddr3_1600)
    flip_model: FlipModelConfig = field(default_factory=FlipModelConfig)
    trr: TrrConfig = field(default_factory=TrrConfig.disabled)
    ecc: EccConfig = field(default_factory=EccConfig.disabled)
    mapping: str = "xor"
    zone_layout: ZoneLayout = field(default_factory=ZoneLayout)
    pcp: PcpConfig = field(default_factory=PcpConfig)
    cache: CpuCacheConfig = field(default_factory=CpuCacheConfig)
    #: Keep the per-machine MetricsRegistry live.  The registry is cheap
    #: enough to leave on (see docs/OBSERVABILITY.md); benchmarks flip
    #: this off to measure instrumentation overhead (experiment A7).
    metrics_enabled: bool = True
    #: Attach an event-driven ANVIL-style hammering watchdog (None = off).
    watchdog: WatchdogConfig | None = None

    def __post_init__(self) -> None:
        if self.num_cpus <= 0:
            raise ConfigError(f"num_cpus must be positive, got {self.num_cpus}")
        if self.num_nodes <= 0:
            raise ConfigError(f"num_nodes must be positive, got {self.num_nodes}")
        if self.num_cpus % self.num_nodes:
            raise ConfigError(
                f"num_cpus ({self.num_cpus}) must divide evenly over "
                f"num_nodes ({self.num_nodes})"
            )
        if self.mapping not in ("linear", "xor"):
            raise ConfigError(f"mapping must be 'linear' or 'xor', got {self.mapping!r}")

    # -- presets ---------------------------------------------------------------

    @classmethod
    def small(cls, seed: int = 0) -> "MachineConfig":
        """64 MiB machine for fast tests."""
        return cls(seed=seed, geometry=DRAMGeometry.small())

    @classmethod
    def default(cls, seed: int = 0) -> "MachineConfig":
        """The standard 256 MiB experiment machine."""
        return cls(seed=seed)

    @classmethod
    def vulnerable(cls, seed: int = 0) -> "MachineConfig":
        """A module with a dense weak-cell population (fast templating)."""
        return cls(seed=seed, flip_model=FlipModelConfig.highly_vulnerable())

    @classmethod
    def invulnerable(cls, seed: int = 0) -> "MachineConfig":
        """A module with no weak cells (negative control)."""
        return cls(seed=seed, flip_model=FlipModelConfig.invulnerable())
