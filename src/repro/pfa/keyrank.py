"""Key-space accounting over per-byte candidate sets."""

from __future__ import annotations

import math

from repro.sim.errors import FaultError


class KeyCandidates:
    """Per-byte candidate sets for a 16-byte (round) key."""

    def __init__(self, per_byte: list[list[int]]):
        if len(per_byte) != 16:
            raise FaultError(f"need 16 positions, got {len(per_byte)}")
        for position, values in enumerate(per_byte):
            if not values:
                raise FaultError(f"position {position} has no candidates left")
            for value in values:
                if not 0 <= value <= 0xFF:
                    raise FaultError(f"candidate {value} at {position} out of range")
        self.per_byte = [sorted(set(values)) for values in per_byte]

    @property
    def keyspace(self) -> int:
        """Exact number of keys consistent with the candidate sets."""
        return math.prod(len(values) for values in self.per_byte)

    @property
    def log2_keyspace(self) -> float:
        """Key space in bits."""
        return sum(math.log2(len(values)) for values in self.per_byte)

    @property
    def is_unique(self) -> bool:
        """True when exactly one key remains."""
        return self.keyspace == 1

    def unique_key(self) -> bytes:
        """The single remaining key; raises if not yet unique."""
        if not self.is_unique:
            raise FaultError(
                f"key not unique: {self.keyspace} candidates "
                f"({self.log2_keyspace:.1f} bits) remain"
            )
        return bytes(values[0] for values in self.per_byte)
