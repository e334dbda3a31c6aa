"""The per-CPU page frame cache (paper Sections IV-V).

Every zone keeps, for every CPU, a small software cache of recently
released order-0 page frames.  Small allocations on a CPU are served from
that CPU's cache before the buddy allocator is consulted, and order-0 frees
go back onto it.  Two properties drive the ExplFrame attack and are
modelled exactly:

* the cache is **LIFO**: the most recently freed frame is the first one
  handed out again.  An attacker who munmaps a chosen frame and stays
  resident on the CPU therefore knows that the next small allocation on
  that CPU — e.g. the victim's — receives *that* frame "with a probability
  of almost 1" (paper Section V);
* the cache is **per CPU**: a victim on a different CPU allocates from a
  different cache, which is why the attack requires CPU co-residency.

Refill and spill follow the kernel's ``batch``/``high`` discipline: an
empty cache pulls ``batch`` frames from the buddy in one go, and a cache
grown past ``high`` pushes ``batch`` frames (the coldest ones) back.
A ``fifo`` discipline is provided solely for the A1 ablation, which shows
the attack collapses without LIFO reuse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.mm.buddy import BuddyAllocator
from repro.mm.page import ALLOCATED, ON_PCP, PageFlags
from repro.sim.errors import AllocationError, ConfigError, OutOfMemoryError


@dataclass(frozen=True)
class PcpConfig:
    """Sizing and discipline of one per-CPU page list."""

    batch: int = 16
    high: int = 96
    discipline: str = "lifo"

    def __post_init__(self) -> None:
        if self.batch <= 0:
            raise ConfigError(f"batch must be positive, got {self.batch}")
        if self.high < self.batch:
            raise ConfigError(
                f"high ({self.high}) must be at least batch ({self.batch})"
            )
        if self.discipline not in ("lifo", "fifo"):
            raise ConfigError(f"discipline must be 'lifo' or 'fifo', got {self.discipline!r}")


class PerCpuPageCache:
    """One zone's page frame cache for one CPU."""

    def __init__(self, buddy: BuddyAllocator, config: PcpConfig | None = None):
        self.buddy = buddy
        self.config = config or PcpConfig()
        # Hot end is the right side (append/pop); cold end is the left.
        self._pages: deque[int] = deque()
        self.served_from_cache = 0
        self.refills = 0
        self.spills = 0
        self.drains = 0

    # -- state -----------------------------------------------------------------

    @property
    def count(self) -> int:
        """Frames currently held."""
        return len(self._pages)

    def peek_hot(self) -> int | None:
        """The frame the next allocation would receive (None if empty)."""
        if not self._pages:
            return None
        if self.config.discipline == "lifo":
            return self._pages[-1]
        return self._pages[0]

    def holds(self, pfn: int) -> bool:
        """True if ``pfn`` is currently on this list."""
        return pfn in self._pages

    def snapshot(self) -> list[int]:
        """Cold-to-hot copy of the list contents."""
        return list(self._pages)

    # -- allocation path -----------------------------------------------------

    def alloc(self, owner_pid: int | None = None, stamp: int = 0) -> int:
        """Serve one order-0 frame, refilling from the buddy if empty.

        Raises :class:`OutOfMemoryError` if the cache is empty and the buddy
        cannot supply a single page.
        """
        if not self._pages:
            self._refill(stamp)
        else:
            self.served_from_cache += 1
        if self.config.discipline == "lifo":
            pfn = self._pages.pop()
        else:
            pfn = self._pages.popleft()
        self.buddy.frames.claim(pfn, 1, owner_pid, stamp)
        return pfn

    def _refill(self, stamp: int) -> None:
        """Pull up to ``batch`` order-0 frames from the buddy allocator."""
        pulled = 0
        for _ in range(self.config.batch):
            try:
                pfn = self.buddy.alloc(0, owner_pid=None, stamp=stamp)
            except OutOfMemoryError:
                break
            self.buddy.frames.mark(pfn, ON_PCP)
            self._pages.append(pfn)
            pulled += 1
        if pulled == 0:
            raise OutOfMemoryError("pcp refill failed: buddy allocator exhausted")
        self.refills += 1

    # -- free path ------------------------------------------------------------------

    def free(self, pfn: int) -> None:
        """Return one order-0 frame to the hot end of the list.

        Spills ``batch`` cold frames back to the buddy when the list grows
        past ``high``.
        """
        if not self.buddy.contains(pfn):
            raise AllocationError(f"pfn {pfn:#x} belongs to a different zone")
        frames = self.buddy.frames
        state = frames.state(pfn)
        if state != ALLOCATED:
            raise AllocationError(
                f"pcp free of pfn {pfn:#x} in state {tuple(PageFlags)[state].value!r}"
            )
        frames.release(pfn, 1, ON_PCP)
        self._pages.append(pfn)
        if len(self._pages) > self.config.high:
            self._spill(self.config.batch)

    def _spill(self, count: int) -> None:
        """Push the ``count`` coldest frames back into the buddy allocator."""
        for _ in range(min(count, len(self._pages))):
            pfn = self._pages.popleft()
            # The buddy's free() validates state itself; flag must be
            # ALLOCATED for its double-free check, so transition first.
            self.buddy.frames.mark(pfn, ALLOCATED)
            self.buddy.free(pfn, 0)
        self.spills += 1

    def drain(self) -> int:
        """Return every held frame to the buddy; returns how many moved.

        This is what happens when the owning task sleeps or is migrated —
        the behaviour the paper warns the adversary about ("the adversarial
        process must remain active").
        """
        moved = len(self._pages)
        self._spill(moved)
        if moved:
            self.drains += 1
            self.spills -= 1  # the drain's spill is accounted separately
        return moved

    def __repr__(self) -> str:
        return (
            f"PerCpuPageCache(count={self.count}, batch={self.config.batch}, "
            f"high={self.config.high}, discipline={self.config.discipline})"
        )
