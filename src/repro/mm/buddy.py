"""The buddy allocator (paper Section IV, Fig. 1).

Free frames are clustered into power-of-two blocks, one free list per
order 0..MAX_ORDER.  Allocating order *k* takes a block from the smallest
non-empty order >= *k*, splitting larger blocks in half on the way down
(the two halves are "buddies").  Freeing a block checks whether its buddy —
computed as ``pfn XOR (1 << order)`` — is also free; if so the pair
coalesces and the merge cascades upward.

Free lists behave like the kernel's: freed and split-off blocks go to the
head of the list and allocations take from the head (LIFO), which is what
makes recently freed memory likely to be handed out again even *without*
the per-CPU cache.  All bookkeeping is validated: double frees, frees of
unallocated heads and misaligned blocks raise immediately.
"""

from __future__ import annotations

from repro.mm.page import FREE_BUDDY, FrameTable
from repro.sim.errors import AllocationError, ConfigError, OutOfMemoryError

MAX_ORDER = 10  # Linux's historical MAX_ORDER - 1: blocks up to 2^10 pages = 4 MiB


class BuddyAllocator:
    """Buddy system over the frame range ``[start_pfn, end_pfn)``."""

    def __init__(
        self,
        frames: FrameTable,
        start_pfn: int,
        end_pfn: int,
        max_order: int = MAX_ORDER,
    ):
        if not 0 <= start_pfn < end_pfn <= len(frames):
            raise ConfigError(
                f"frame range [{start_pfn}, {end_pfn}) invalid for table of {len(frames)}"
            )
        if not 0 <= max_order <= 16:
            raise ConfigError(f"max_order {max_order} out of sane range [0, 16]")
        if start_pfn % (1 << max_order):
            raise ConfigError(
                f"start_pfn {start_pfn:#x} must be aligned to a max-order block "
                f"({1 << max_order} pages)"
            )
        self.frames = frames
        self.start_pfn = start_pfn
        self.end_pfn = end_pfn
        self.max_order = max_order
        # Insertion-ordered "sets"; the head of the list is the most recently
        # inserted entry (LIFO discipline, like the kernel's list_head usage).
        self.free_lists: list[dict[int, None]] = [dict() for _ in range(max_order + 1)]
        self.free_pages = 0
        self.split_count = 0
        self.merge_count = 0
        self.alloc_count = 0
        self.free_count = 0
        self._seed_free_lists()

    # -- initial population ---------------------------------------------------

    def _seed_free_lists(self) -> None:
        """Cover the range with the largest aligned blocks that fit."""
        self.frames.release(self.start_pfn, self.end_pfn - self.start_pfn)
        pfn = self.start_pfn
        while pfn < self.end_pfn:
            order = self.max_order
            while order > 0 and (pfn % (1 << order) or pfn + (1 << order) > self.end_pfn):
                order -= 1
            self._insert_free_block(pfn, order)
            pfn += 1 << order

    # -- free-list primitives ---------------------------------------------------

    def _insert_free_block(self, pfn: int, order: int) -> None:
        # Only the head's order is written: every frame of the block is
        # already FREE_BUDDY with no owner (seeding and free() release the
        # frames; split-off halves and merged buddies were free blocks), so
        # descriptor state stays the truth for whole-machine invariants.
        self.frames.set_order(pfn, order)
        self.free_lists[order][pfn] = None
        self.free_pages += 1 << order

    def _remove_free_block(self, pfn: int, order: int) -> None:
        del self.free_lists[order][pfn]
        self.free_pages -= 1 << order

    def _pop_head(self, order: int) -> int:
        """Take the most recently inserted block of ``order``."""
        pfn, _ = self.free_lists[order].popitem()  # pops most recently inserted
        self.free_pages -= 1 << order
        return pfn

    def is_block_free(self, pfn: int, order: int) -> bool:
        """True if ``pfn`` heads a free block of exactly ``order``."""
        return pfn in self.free_lists[order]

    # -- allocation -----------------------------------------------------------

    def alloc(self, order: int, owner_pid: int | None = None, stamp: int = 0) -> int:
        """Allocate a block of ``2**order`` pages; returns the head pfn.

        Raises :class:`OutOfMemoryError` when no block of sufficient order
        is free.
        """
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} out of range [0, {self.max_order}]")
        current = order
        while current <= self.max_order and not self.free_lists[current]:
            current += 1
        if current > self.max_order:
            raise OutOfMemoryError(
                f"no free block of order >= {order} "
                f"(free pages: {self.free_pages})"
            )
        pfn = self._pop_head(current)
        # Split down to the requested order; the upper half of each split
        # goes back on its free list (it becomes the allocated half's buddy).
        while current > order:
            current -= 1
            buddy = pfn + (1 << current)
            self._insert_free_block(buddy, current)
            self.split_count += 1
        self.frames.claim(pfn, 1 << order, owner_pid, stamp)
        self.frames.set_order(pfn, order)
        self.alloc_count += 1
        return pfn

    # -- free + coalesce -----------------------------------------------------------

    def _buddy_of(self, pfn: int, order: int) -> int:
        return pfn ^ (1 << order)

    def free(self, pfn: int, order: int) -> int:
        """Free the block of ``2**order`` pages headed by ``pfn``.

        Coalesces with free buddies as far up as possible and returns the
        order of the block finally inserted into the free lists.
        """
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} out of range [0, {self.max_order}]")
        if pfn % (1 << order):
            raise AllocationError(f"pfn {pfn:#x} not aligned for order {order}")
        if not self.start_pfn <= pfn < self.end_pfn:
            raise AllocationError(f"pfn {pfn:#x} outside this allocator's range")
        double = self.frames.find_state(FREE_BUDDY, pfn, pfn + (1 << order))
        if double >= 0:
            raise AllocationError(f"double free of pfn {double:#x}")
        self.frames.release(pfn, 1 << order)
        current = order
        while current < self.max_order:
            buddy = self._buddy_of(pfn, current)
            if not self.start_pfn <= buddy < self.end_pfn:
                break
            if not self.is_block_free(buddy, current):
                break
            self._remove_free_block(buddy, current)
            self.merge_count += 1
            pfn = min(pfn, buddy)
            current += 1
        self._insert_free_block(pfn, current)
        self.free_count += 1
        return current

    # -- inspection -----------------------------------------------------------

    def free_blocks_by_order(self) -> dict[int, int]:
        """Map order -> number of free blocks (like /proc/buddyinfo)."""
        return {order: len(blocks) for order, blocks in enumerate(self.free_lists)}

    def largest_free_order(self) -> int | None:
        """Highest order with a free block, or None if empty."""
        for order in range(self.max_order, -1, -1):
            if self.free_lists[order]:
                return order
        return None

    def contains(self, pfn: int) -> bool:
        """True if ``pfn`` belongs to this allocator's range."""
        return self.start_pfn <= pfn < self.end_pfn

    def fragmentation_index(self) -> float:
        """Fraction of free memory *not* available as max-order blocks.

        0.0 means all free memory sits in max-order blocks (unfragmented);
        1.0 means none of it does.
        """
        if self.free_pages == 0:
            return 0.0
        max_order_pages = len(self.free_lists[self.max_order]) << self.max_order
        return 1.0 - max_order_pages / self.free_pages

    def __repr__(self) -> str:
        return (
            f"BuddyAllocator([{self.start_pfn:#x}, {self.end_pfn:#x}), "
            f"free={self.free_pages} pages)"
        )
