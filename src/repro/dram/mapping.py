"""Physical-address -> DRAM-coordinate mapping.

Real memory controllers slice the physical address into column, bank, row,
rank and channel fields, often XOR-folding row bits into the bank bits to
spread sequential accesses across banks.  The attack code never assumes a
particular mapping — it works through this interface — but the experiments
default to :class:`XorBankMapping` because that is what Intel-style
controllers do and it is the setting the Rowhammer literature assumes.

Both mappings here share the same bit layout (low to high):

    | column | bank | row | rank | channel |

placing the bank bits *below* the row bits.  Consequently one row of one
bank spans ``row_bytes`` contiguous physical bytes, and the next row of the
*same* bank is ``banks_per_rank * row_bytes`` further on — the classic
"row stride" that user-space Rowhammer code exploits to find same-bank
aggressor pairs inside a contiguous buffer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.dram.geometry import DRAMAddress, DRAMGeometry
from repro.sim.errors import ConfigError


class AddressMapping(ABC):
    """Bijection between physical byte addresses and DRAM coordinates."""

    def __init__(self, geometry: DRAMGeometry):
        self.geometry = geometry
        # ``total_bytes`` is a derived property; the bounds check runs on
        # every DRAM access, so the product is taken once here.
        self._total_bytes = geometry.total_bytes
        self._col_bits = (geometry.row_bytes - 1).bit_length()
        self._bank_bits = (geometry.banks_per_rank - 1).bit_length()
        self._row_bits = (geometry.rows_per_bank - 1).bit_length()
        self._rank_bits = (geometry.ranks_per_channel - 1).bit_length()

    @abstractmethod
    def to_dram(self, phys: int) -> DRAMAddress:
        """Resolve physical byte address ``phys`` into a DRAM coordinate."""

    @abstractmethod
    def to_phys(self, addr: DRAMAddress) -> int:
        """Inverse of :meth:`to_dram`."""

    # -- shared helpers ------------------------------------------------------

    def _check_phys(self, phys: int) -> None:
        if not 0 <= phys < self._total_bytes:
            raise ConfigError(
                f"physical address {phys:#x} outside module "
                f"[0, {self._total_bytes:#x})"
            )

    def _split_fields(self, phys: int) -> tuple[int, int, int, int, int]:
        """Slice ``phys`` into raw (channel, rank, row, bank, col) fields."""
        self._check_phys(phys)
        col = phys & (self.geometry.row_bytes - 1)
        rest = phys >> self._col_bits
        bank = rest & (self.geometry.banks_per_rank - 1)
        rest >>= self._bank_bits
        row = rest & (self.geometry.rows_per_bank - 1)
        rest >>= self._row_bits
        rank = rest & (self.geometry.ranks_per_channel - 1)
        channel = rest >> self._rank_bits
        return channel, rank, row, bank, col

    def bank_rows(self, phys: np.ndarray) -> tuple[np.ndarray, ...]:
        """Vector form of :meth:`to_dram`: ``(channel, rank, bank, row)`` arrays."""
        phys = np.asarray(phys, dtype=np.int64)
        if phys.size:
            self._check_phys(int(phys.min()))
            self._check_phys(int(phys.max()))
        rest = phys >> self._col_bits
        bank = rest & (self.geometry.banks_per_rank - 1)
        rest >>= self._bank_bits
        row = rest & (self.geometry.rows_per_bank - 1)
        rest >>= self._row_bits
        rank = rest & (self.geometry.ranks_per_channel - 1)
        channel = rest >> self._rank_bits
        return channel, rank, self._fold_bank(bank, row), row

    def _fold_bank(self, bank_field, row):
        """The bank a ``bank_field`` selects in ``row`` (ints or arrays)."""
        return bank_field

    def _join_fields(self, channel: int, rank: int, row: int, bank: int, col: int) -> int:
        phys = channel
        phys = (phys << self._rank_bits) | rank
        phys = (phys << self._row_bits) | row
        phys = (phys << self._bank_bits) | bank
        phys = (phys << self._col_bits) | col
        return phys

    def row_stride(self) -> int:
        """Physical-address distance between adjacent rows of one bank."""
        return self.geometry.banks_per_rank * self.geometry.row_bytes

    def row_base_phys(self, channel: int, rank: int, bank: int, row: int) -> int:
        """Physical address of byte 0 of the given row."""
        return self.to_phys(DRAMAddress(channel=channel, rank=rank, bank=bank, row=row, col=0))


class LinearMapping(AddressMapping):
    """Straight bit-slice mapping: the bank field is used verbatim."""

    def to_dram(self, phys: int) -> DRAMAddress:
        """Resolve ``phys`` with the bank field taken verbatim."""
        channel, rank, row, bank, col = self._split_fields(phys)
        return DRAMAddress(channel=channel, rank=rank, bank=bank, row=row, col=col)

    def to_phys(self, addr: DRAMAddress) -> int:
        """Inverse of :meth:`to_dram`."""
        self.geometry.validate_address(addr)
        return self._join_fields(addr.channel, addr.rank, addr.row, addr.bank, addr.col)


class XorBankMapping(AddressMapping):
    """Intel-style mapping: bank bits are XOR-folded with low row bits.

    ``bank_actual = bank_field XOR (row & bank_mask)`` — a per-row
    permutation of the banks, so the map stays bijective while sequential
    physical rows rotate through the banks.
    """

    def to_dram(self, phys: int) -> DRAMAddress:
        """Resolve ``phys`` with the bank field XOR-folded against the row."""
        channel, rank, row, bank_field, col = self._split_fields(phys)
        return DRAMAddress(
            channel=channel, rank=rank, bank=self._fold_bank(bank_field, row), row=row, col=col
        )

    def _fold_bank(self, bank_field, row):
        """``bank_field XOR (row & bank_mask)``, for ints or arrays."""
        return bank_field ^ (row & (self.geometry.banks_per_rank - 1))

    def to_phys(self, addr: DRAMAddress) -> int:
        """Inverse of :meth:`to_dram` (the XOR fold is an involution)."""
        self.geometry.validate_address(addr)
        bank_field = self._fold_bank(addr.bank, addr.row)
        return self._join_fields(addr.channel, addr.rank, addr.row, bank_field, addr.col)


_MAPPINGS = {
    "linear": LinearMapping,
    "xor": XorBankMapping,
}


def make_mapping(name: str, geometry: DRAMGeometry) -> AddressMapping:
    """Construct a mapping by name (``"linear"`` or ``"xor"``)."""
    try:
        cls = _MAPPINGS[name]
    except KeyError:
        raise ConfigError(
            f"unknown address mapping {name!r}; choose from {sorted(_MAPPINGS)}"
        ) from None
    return cls(geometry)
