"""DRAM timing parameters.

Only the parameters that matter for Rowhammer are modelled:

* ``t_rc_ns`` — the row cycle time, i.e. the minimum interval between two
  activations of rows in the same bank.  It bounds how many hammer
  activations fit into one refresh window.
* ``t_refw_ns`` — the refresh window (tREFW, 64 ms for DDR3/DDR4): every
  cell is refreshed once per window, so disturbance accumulated in one
  window does not carry into the next.
* ``t_cas_ns`` — approximate cost of a row-buffer hit, used only to advance
  the simulated clock for non-activating accesses.

The derived :meth:`DRAMTiming.max_activations_per_window` is the hard
physical ceiling on single-bank hammer counts (~1.36 M for the defaults),
matching the figure quoted by Kim et al. (ISCA 2014).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.errors import ConfigError
from repro.sim.units import MS


@dataclass(frozen=True)
class DRAMTiming:
    """Timing constants in integer nanoseconds (DDR3-1600 defaults)."""

    t_rc_ns: int = 47
    t_refw_ns: int = 64 * MS
    t_cas_ns: int = 14

    def __post_init__(self) -> None:
        if self.t_rc_ns <= 0:
            raise ConfigError(f"t_rc_ns must be positive, got {self.t_rc_ns}")
        if self.t_cas_ns <= 0:
            raise ConfigError(f"t_cas_ns must be positive, got {self.t_cas_ns}")
        if self.t_refw_ns < self.t_rc_ns:
            raise ConfigError(
                f"refresh window ({self.t_refw_ns} ns) shorter than one row cycle "
                f"({self.t_rc_ns} ns)"
            )

    def max_activations_per_window(self) -> int:
        """Most activations one bank can absorb inside one refresh window."""
        return self.t_refw_ns // self.t_rc_ns

    @classmethod
    def ddr3_1600(cls) -> "DRAMTiming":
        """DDR3-1600 (the generation where Rowhammer was first reported)."""
        return cls(t_rc_ns=47, t_refw_ns=64 * MS, t_cas_ns=14)

    @classmethod
    def fast_refresh(cls, factor: int) -> "DRAMTiming":
        """An Nx refresh-rate mitigation profile (64/N ms window).

        Used by the A2 ablation.  Raising the refresh rate divides the
        number of activations an aggressor can land inside one window;
        once the per-window budget drops below the weak cells' thresholds
        the flip yield collapses — the standard Rowhammer mitigation
        trade-off.
        """
        if factor < 1:
            raise ConfigError(f"refresh factor must be >= 1, got {factor}")
        return cls(t_rc_ns=47, t_refw_ns=(64 * MS) // factor, t_cas_ns=14)
