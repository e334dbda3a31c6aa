"""Per-bank row-buffer state machine and activation accounting.

A DRAM bank has a single row buffer; reading a byte first requires the
containing row to be *activated* into that buffer.  Two consequences matter
for Rowhammer and are both modelled here:

* accessing the already-open row is a **row hit** and causes no activation —
  this is why hammering a single address in a tight loop does nothing, and
  why aggressor pairs must live in the *same bank but different rows*;
* each activation of a row disturbs its neighbours; the controller counts
  activations per row **within the current refresh window** and resets the
  counters when the window rolls over.
"""

from __future__ import annotations

from repro.dram.trr import TrrState
from repro.sim.errors import ConfigError


class Bank:
    """State of one DRAM bank: open row plus per-window activation counts.

    When a :class:`~repro.dram.trr.TrrState` is attached, the per-window
    counters hold *effective* (post-mitigation) activations: tracked rows
    are clamped below the TRR threshold, untracked rows accumulate freely.
    Lifetime counters always record raw activations.
    """

    def __init__(self, rows: int, trr: TrrState | None = None):
        if rows <= 0:
            raise ConfigError(f"bank must have a positive row count, got {rows}")
        self.rows = rows
        self.trr = trr
        self.open_row: int | None = None
        # Sparse map row -> effective activations inside the current window.
        self.activations: dict[int, int] = {}
        # Lifetime counters, never reset (used for statistics only).
        self.total_activations = 0
        self.total_row_hits = 0

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise ConfigError(f"row {row} out of range [0, {self.rows})")

    def access(self, row: int) -> bool:
        """Access one byte in ``row``.  Returns True if it activated the row.

        A row-buffer miss precharges the open row and activates ``row``
        (counting toward disturbance); a hit leaves the counters untouched.
        """
        self._check_row(row)
        if self.open_row == row:
            self.total_row_hits += 1
            return False
        self.open_row = row
        self._count(row, 1)
        return True

    def access_run(self, row: int, count: int) -> bool:
        """``count`` back-to-back accesses to ``row``; True if the first activated it.

        Only the first access can miss the row buffer; the rest are row hits.
        """
        activated = self.access(row)
        self.total_row_hits += count - 1
        return activated

    def _count(self, row: int, added: int) -> None:
        """Add ``added`` raw activations, applying TRR clamping if present."""
        new_count = self.activations.get(row, 0) + added
        if self.trr is not None:
            new_count = self.trr.observe(row, new_count)
        self.activations[row] = new_count
        self.total_activations += added

    def bulk_activate(self, row: int, count: int) -> None:
        """Record ``count`` activations of ``row`` in one step.

        Semantically equal to ``count`` alternating-access activations; used
        by the controller's hammer fast path so million-iteration hammer
        loops do not cost a Python-level loop each.
        """
        self._check_row(row)
        if count < 0:
            raise ConfigError(f"activation count must be non-negative, got {count}")
        if count == 0:
            return
        self.open_row = row
        self._count(row, count)

    def activations_in_window(self, row: int) -> int:
        """Activations of ``row`` inside the current refresh window."""
        self._check_row(row)
        return self.activations.get(row, 0)

    def refresh(self) -> None:
        """Refresh the bank: disturbance accounting restarts from zero.

        The open row is also closed (real refresh requires all banks
        precharged).
        """
        self.activations.clear()
        self.open_row = None
        if self.trr is not None:
            self.trr.window_reset()

    def hammered_rows(self) -> list[int]:
        """Rows with at least one activation in the current window."""
        return sorted(self.activations)

    def __repr__(self) -> str:
        return (
            f"Bank(rows={self.rows}, open_row={self.open_row}, "
            f"active_counters={len(self.activations)})"
        )
