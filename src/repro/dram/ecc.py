"""SECDED ECC memory: correction of single-bit disturbance errors.

Server-grade modules store an ECC syndrome per (typically 64-bit) data
word: **S**ingle **E**rror **C**orrect, **D**ouble **E**rror **D**etect.
For Rowhammer this means:

* a lone disturbance flip in a word is transparently corrected — the
  attacker's templating scan never sees it;
* **two** flipped bits in one word exceed the correction capability; the
  corrupt data becomes visible (and on real hardware typically raises a
  machine check).  Cojocar et al. ("Exploiting Correcting Codes",
  S&P 2019 — *ECCploit*) showed attackers can still exploit ECC DRAM by
  finding words with multiple weak cells.

The model tracks pending (suppressed) single-bit flips per word; the
moment a second weak cell of the same word fires, both bits materialise
in memory and a :class:`repro.dram.controller.FlipEvent` is logged for
each.  Rewriting a word (any store into it) clears its pending state —
fresh data means fresh cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.errors import ConfigError


@dataclass(frozen=True)
class EccConfig:
    """Shape of the ECC scheme."""

    enabled: bool = False
    word_bytes: int = 8

    def __post_init__(self) -> None:
        if self.word_bytes <= 0 or self.word_bytes & (self.word_bytes - 1):
            raise ConfigError(
                f"word_bytes must be a positive power of two, got {self.word_bytes}"
            )

    @classmethod
    def disabled(cls) -> "EccConfig":
        """Non-ECC consumer memory (the paper's setting)."""
        return cls(enabled=False)

    @classmethod
    def secded64(cls) -> "EccConfig":
        """Standard server SECDED over 64-bit words."""
        return cls(enabled=True, word_bytes=8)


class EccState:
    """Pending-correction bookkeeping for the whole module."""

    def __init__(self, config: EccConfig):
        if not config.enabled:
            raise ConfigError("EccState requires an enabled EccConfig")
        self.config = config
        # word index -> set of (phys byte addr, bit) suppressed flips.
        self._pending: dict[int, set[tuple[int, int]]] = {}
        self._uncorrectable_words: set[int] = set()
        self.corrected_bits = 0
        self.uncorrectable_events = 0

    def word_index(self, phys: int) -> int:
        """The ECC word containing physical byte ``phys``."""
        return phys // self.config.word_bytes

    def register_flip(self, phys: int, bit: int) -> list[tuple[int, int]]:
        """Account a disturbance flip at (``phys``, ``bit``).

        Returns the list of (addr, bit) flips that must *materialise* in
        memory now:

        * empty — the flip was absorbed as a correctable single-bit error;
        * the full pending set — this flip made the word uncorrectable,
          so every suppressed bit (plus this one) becomes visible;
        * just this flip — the word was already uncorrectable.
        """
        word = self.word_index(phys)
        if word in self._uncorrectable_words:
            return [(phys, bit)]
        pending = self._pending.setdefault(word, set())
        if (phys, bit) in pending:
            return []
        pending.add((phys, bit))
        if len(pending) == 1:
            self.corrected_bits += 1
            return []
        # Second distinct bit: correction capability exceeded.
        self._uncorrectable_words.add(word)
        self.uncorrectable_events += 1
        del self._pending[word]
        return sorted(pending)

    def clear_range(self, phys: int, length: int) -> None:
        """A store rewrote [phys, phys+length): drop that range's state."""
        if length <= 0:
            return
        first = self.word_index(phys)
        last = self.word_index(phys + length - 1)
        for word in range(first, last + 1):
            self._pending.pop(word, None)
            self._uncorrectable_words.discard(word)

    def pending_words(self) -> int:
        """Words currently holding one corrected (suppressed) flip."""
        return len(self._pending)

    def __repr__(self) -> str:
        return (
            f"EccState(pending={self.pending_words()}, "
            f"corrected={self.corrected_bits}, "
            f"uncorrectable={self.uncorrectable_events})"
        )
