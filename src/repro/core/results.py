"""Result records returned by the attack stages.

These are the structured outputs the benchmarks aggregate into the
experiment tables; every field is plain data so results can be compared,
printed and serialised without touching live machine state.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FlipTemplate:
    """One flippable bit found during templating, attacker's view.

    Everything is expressed in the attacker's *virtual* frame of reference
    (she cannot see physical addresses): the VA of the containing page, the
    byte offset and bit inside it, the flip direction, and the aggressor
    pair that produced it.
    """

    page_va: int
    page_offset: int
    bit: int
    flips_to_one: bool
    aggressor_vas: tuple[int, int]

    @property
    def byte_va(self) -> int:
        """VA of the byte containing the flip."""
        return self.page_va + self.page_offset

    def to_dict(self) -> dict:
        """Plain-data form (attackers persist template banks between runs)."""
        return {
            "page_va": self.page_va,
            "page_offset": self.page_offset,
            "bit": self.bit,
            "flips_to_one": self.flips_to_one,
            "aggressor_vas": list(self.aggressor_vas),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FlipTemplate":
        """Inverse of :meth:`to_dict`."""
        return cls(
            page_va=data["page_va"],
            page_offset=data["page_offset"],
            bit=data["bit"],
            flips_to_one=data["flips_to_one"],
            aggressor_vas=tuple(data["aggressor_vas"]),
        )


@dataclass
class TemplatingResult:
    """Outcome of a templating scan over the attacker's buffer."""

    buffer_bytes: int
    rounds_per_pair: int
    pairs_hammered: int
    templates: list[FlipTemplate] = field(default_factory=list)
    elapsed_ns: int = 0

    @property
    def flips_found(self) -> int:
        """Number of distinct flippable bits discovered."""
        return len(self.templates)

    @property
    def flips_per_gib(self) -> float:
        """Yield normalised to flips per GiB of templated memory."""
        gib = self.buffer_bytes / (1024**3)
        return self.flips_found / gib if gib else 0.0


@dataclass
class SteeringResult:
    """Outcome of one page-frame-cache steering round."""

    steered_pfn: int
    victim_pfns: list[int]
    success: bool
    victim_request_pages: int
    same_cpu: bool
    noise_pages: int = 0

    @property
    def landing_index(self) -> int | None:
        """Position of the steered frame within the victim's allocation."""
        try:
            return self.victim_pfns.index(self.steered_pfn)
        except ValueError:
            return None
