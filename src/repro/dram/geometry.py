"""DRAM geometry: the channel / rank / bank / row / column hierarchy.

Section III of the paper describes the physical organisation this module
captures: DIMMs on channels, ranks per DIMM, typically eight banks per rank,
and each bank a two-dimensional array of cells addressed by (row, column).
The geometry object is pure arithmetic — it knows sizes and index ranges and
validates coordinates; the mapping from physical addresses into coordinates
lives in :mod:`repro.dram.mapping`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.errors import ConfigError
from repro.sim.units import KIB, MIB


@dataclass(frozen=True)
class DRAMAddress:
    """A fully resolved DRAM coordinate for one byte of storage."""

    channel: int
    rank: int
    bank: int
    row: int
    col: int

    def bank_key(self) -> tuple[int, int, int]:
        """Identity of the containing bank, usable as a dict key."""
        return (self.channel, self.rank, self.bank)

    def __str__(self) -> str:
        return (
            f"ch{self.channel}/rk{self.rank}/ba{self.bank}"
            f"/row{self.row:#x}/col{self.col:#x}"
        )


def _require_power_of_two(name: str, value: int) -> None:
    if value <= 0 or value & (value - 1):
        raise ConfigError(f"{name} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class DRAMGeometry:
    """Static shape of the simulated memory system.

    The defaults model a deliberately small module (256 MiB) so whole-machine
    experiments run quickly; every parameter scales up to realistic DDR3/DDR4
    shapes.  All counts must be powers of two so the physical-address bit
    slicing in :mod:`repro.dram.mapping` is exact.
    """

    channels: int = 1
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    rows_per_bank: int = 4096
    row_bytes: int = 8 * KIB

    def __post_init__(self) -> None:
        _require_power_of_two("channels", self.channels)
        _require_power_of_two("ranks_per_channel", self.ranks_per_channel)
        _require_power_of_two("banks_per_rank", self.banks_per_rank)
        _require_power_of_two("rows_per_bank", self.rows_per_bank)
        _require_power_of_two("row_bytes", self.row_bytes)
        if self.row_bytes < 1 * KIB:
            raise ConfigError(f"row_bytes must be at least 1 KiB, got {self.row_bytes}")

    # -- derived sizes -----------------------------------------------------

    @property
    def total_banks(self) -> int:
        """Total number of banks across all channels and ranks."""
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def bank_bytes(self) -> int:
        """Capacity of one bank."""
        return self.rows_per_bank * self.row_bytes

    @property
    def total_bytes(self) -> int:
        """Capacity of the whole module."""
        return self.total_banks * self.bank_bytes

    @property
    def row_bits(self) -> int:
        """Number of data bits held in one row."""
        return self.row_bytes * 8

    # -- coordinate helpers --------------------------------------------------

    def flat_bank_index(self, channel: int, rank: int, bank: int) -> int:
        """Collapse a (channel, rank, bank) triple into one flat bank id."""
        self.validate_bank(channel, rank, bank)
        return (channel * self.ranks_per_channel + rank) * self.banks_per_rank + bank

    def validate_bank(self, channel: int, rank: int, bank: int) -> None:
        """Raise :class:`ConfigError` unless the bank coordinate exists."""
        if not 0 <= channel < self.channels:
            raise ConfigError(f"channel {channel} out of range [0, {self.channels})")
        if not 0 <= rank < self.ranks_per_channel:
            raise ConfigError(f"rank {rank} out of range [0, {self.ranks_per_channel})")
        if not 0 <= bank < self.banks_per_rank:
            raise ConfigError(f"bank {bank} out of range [0, {self.banks_per_rank})")

    def validate_address(self, addr: DRAMAddress) -> None:
        """Raise :class:`ConfigError` unless ``addr`` is in range."""
        self.validate_bank(addr.channel, addr.rank, addr.bank)
        if not 0 <= addr.row < self.rows_per_bank:
            raise ConfigError(f"row {addr.row} out of range [0, {self.rows_per_bank})")
        if not 0 <= addr.col < self.row_bytes:
            raise ConfigError(f"col {addr.col} out of range [0, {self.row_bytes})")

    # -- presets -------------------------------------------------------------

    @classmethod
    def small(cls) -> "DRAMGeometry":
        """A 64 MiB module for fast unit tests (8 banks x 1024 rows x 8 KiB)."""
        return cls(rows_per_bank=1024)

    @classmethod
    def default(cls) -> "DRAMGeometry":
        """The standard experiment module: 256 MiB, one rank of 8 banks."""
        return cls()

    def __str__(self) -> str:
        return (
            f"DRAMGeometry({self.channels}ch x {self.ranks_per_channel}rk x "
            f"{self.banks_per_rank}ba x {self.rows_per_bank}rows x "
            f"{self.row_bytes // KIB}KiB rows = {self.total_bytes // MIB} MiB)"
        )
