"""Test-only reference allocator: numpy descriptor columns and per-frame loops.

``repro.mm.page.FrameTable`` stores descriptors in Python-native buffers
(``bytearray`` and ``array('q')``) written through pfn-level methods, and
``repro.mm.buddy`` touches only the frames that change state: a split-off
half or a merged buddy is already ``FREE_BUDDY`` with no owner, so only
its head's order is written.  This module is the formulation those
replaced: one numpy column per field, a :class:`ReferencePageFrame` view
per frame access, and a buddy allocator that re-marks every frame of
every block it inserts.  The differential test in
``tests/test_mm_reference.py`` drives both stacks through the same
operations and compares every descriptor, free list and pcp list after
each step.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.mm.buddy import MAX_ORDER
from repro.mm.page import PageFlags
from repro.mm.pcp import PcpConfig
from repro.sim.errors import AllocationError, ConfigError, OutOfMemoryError

_CODE_OF = {flag: code for code, flag in enumerate(PageFlags)}
_FLAG_OF = tuple(PageFlags)
_NO_OWNER = -1


class _Columns:
    """Column store backing ``total`` page-frame descriptors."""

    __slots__ = ("flags", "order", "owner", "stamp")

    def __init__(self, total: int):
        self.flags = np.full(total, _CODE_OF[PageFlags.FREE_BUDDY], dtype=np.uint8)
        self.order = np.zeros(total, dtype=np.int64)
        self.owner = np.full(total, _NO_OWNER, dtype=np.int64)
        self.stamp = np.zeros(total, dtype=np.int64)


class ReferencePageFrame:
    """Descriptor for one physical page frame (a view into a column store)."""

    __slots__ = ("pfn", "_cols", "_idx")

    def __init__(
        self,
        pfn: int,
        flags: PageFlags = PageFlags.FREE_BUDDY,
        order: int = 0,
        owner_pid: int | None = None,
        alloc_stamp: int = 0,
        *,
        _columns: _Columns | None = None,
        _index: int = 0,
    ):
        if _columns is None:
            # Standalone descriptor: back it with a private 1-row store.
            _columns = _Columns(1)
            _index = 0
            _columns.flags[0] = _CODE_OF[flags]
            _columns.order[0] = order
            _columns.owner[0] = _NO_OWNER if owner_pid is None else owner_pid
            _columns.stamp[0] = alloc_stamp
        self.pfn = pfn
        self._cols = _columns
        self._idx = _index

    # -- column-backed fields ------------------------------------------------

    @property
    def flags(self) -> PageFlags:
        return _FLAG_OF[self._cols.flags[self._idx]]

    @flags.setter
    def flags(self, value: PageFlags) -> None:
        self._cols.flags[self._idx] = _CODE_OF[value]

    @property
    def order(self) -> int:
        """Buddy order of the free block this frame heads (head frames only)."""
        return int(self._cols.order[self._idx])

    @order.setter
    def order(self, value: int) -> None:
        self._cols.order[self._idx] = value

    @property
    def owner_pid(self) -> int | None:
        owner = self._cols.owner[self._idx]
        return None if owner == _NO_OWNER else int(owner)

    @owner_pid.setter
    def owner_pid(self, value: int | None) -> None:
        self._cols.owner[self._idx] = _NO_OWNER if value is None else value

    @property
    def alloc_stamp(self) -> int:
        """Monotonic stamp of the last allocation, for reuse-distance stats."""
        return int(self._cols.stamp[self._idx])

    @alloc_stamp.setter
    def alloc_stamp(self, value: int) -> None:
        self._cols.stamp[self._idx] = value

    def mark(self, flags: PageFlags) -> None:
        """Transition to ``flags``."""
        self._cols.flags[self._idx] = _CODE_OF[flags]

    @property
    def is_free(self) -> bool:
        """True when the frame is available (in the buddy or on a pcp list)."""
        code = self._cols.flags[self._idx]
        return code == _CODE_OF[PageFlags.FREE_BUDDY] or code == _CODE_OF[PageFlags.ON_PCP]

    def __repr__(self) -> str:
        return (
            f"ReferencePageFrame(pfn={self.pfn}, flags={self.flags}, order={self.order}, "
            f"owner_pid={self.owner_pid}, alloc_stamp={self.alloc_stamp})"
        )


class ReferenceFrameTable:
    """Dense columnar table of page-frame descriptors for a frame range."""

    def __init__(self, total_frames: int):
        if total_frames <= 0:
            raise ConfigError(f"total_frames must be positive, got {total_frames}")
        self.total_frames = total_frames
        self._cols = _Columns(total_frames)

    def __getitem__(self, pfn: int) -> ReferencePageFrame:
        if not 0 <= pfn < self.total_frames:
            raise ConfigError(f"pfn {pfn} out of range [0, {self.total_frames})")
        return ReferencePageFrame(int(pfn), _columns=self._cols, _index=int(pfn))

    def __len__(self) -> int:
        return self.total_frames

    def owned_by(self, pid: int) -> list[int]:
        """All pfns currently allocated to ``pid``."""
        cols = self._cols
        mask = (cols.flags == _CODE_OF[PageFlags.ALLOCATED]) & (cols.owner == pid)
        return [int(pfn) for pfn in np.nonzero(mask)[0]]

    def count_state(self, flags: PageFlags) -> int:
        """Number of frames currently in the given state."""
        return int(np.count_nonzero(self._cols.flags == _CODE_OF[flags]))


class ReferenceBuddyAllocator:
    """Buddy system over the frame range ``[start_pfn, end_pfn)``."""

    def __init__(
        self,
        frames: ReferenceFrameTable,
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
        pfn = self.start_pfn
        while pfn < self.end_pfn:
            order = self.max_order
            while order > 0 and (pfn % (1 << order) or pfn + (1 << order) > self.end_pfn):
                order -= 1
            self._insert_free_block(pfn, order)
            pfn += 1 << order

    # -- free-list primitives ---------------------------------------------------

    def _insert_free_block(self, pfn: int, order: int) -> None:
        # Every frame of the block is marked free (not just the head), so
        # descriptor state stays the truth for whole-machine invariants.
        for offset in range(1 << order):
            frame = self.frames[pfn + offset]
            if frame.flags is not PageFlags.FREE_BUDDY:
                frame.mark(PageFlags.FREE_BUDDY)
            frame.owner_pid = None
        self.frames[pfn].order = order
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
        for offset in range(1 << order):
            frame = self.frames[pfn + offset]
            frame.mark(PageFlags.ALLOCATED)
            frame.owner_pid = owner_pid
            frame.alloc_stamp = stamp
        self.frames[pfn].order = order
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
        for offset in range(1 << order):
            frame = self.frames[pfn + offset]
            if frame.flags is PageFlags.FREE_BUDDY:
                raise AllocationError(f"double free of pfn {pfn + offset:#x}")
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
            f"ReferenceBuddyAllocator([{self.start_pfn:#x}, {self.end_pfn:#x}), "
            f"free={self.free_pages} pages)"
        )


class ReferencePerCpuPageCache:
    """One zone's page frame cache for one CPU."""

    def __init__(self, buddy: ReferenceBuddyAllocator, config: PcpConfig | None = None):
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
        frame = self.buddy.frames[pfn]
        frame.mark(PageFlags.ALLOCATED)
        frame.owner_pid = owner_pid
        frame.alloc_stamp = stamp
        return pfn

    def _refill(self, stamp: int) -> None:
        """Pull up to ``batch`` order-0 frames from the buddy allocator."""
        pulled = 0
        for _ in range(self.config.batch):
            try:
                pfn = self.buddy.alloc(0, owner_pid=None, stamp=stamp)
            except OutOfMemoryError:
                break
            self.buddy.frames[pfn].mark(PageFlags.ON_PCP)
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
        frame = self.buddy.frames[pfn]
        if frame.flags is not PageFlags.ALLOCATED:
            raise AllocationError(
                f"pcp free of pfn {pfn:#x} in state {frame.flags.value!r}"
            )
        if not self.buddy.contains(pfn):
            raise AllocationError(f"pfn {pfn:#x} belongs to a different zone")
        frame.mark(PageFlags.ON_PCP)
        frame.owner_pid = None
        self._pages.append(pfn)
        if len(self._pages) > self.config.high:
            self._spill(self.config.batch)

    def _spill(self, count: int) -> None:
        """Push the ``count`` coldest frames back into the buddy allocator."""
        for _ in range(min(count, len(self._pages))):
            pfn = self._pages.popleft()
            # The buddy's free() validates state itself; flag must be
            # ALLOCATED for its double-free check, so transition first.
            self.buddy.frames[pfn].mark(PageFlags.ALLOCATED)
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
            f"ReferencePerCpuPageCache(count={self.count}, batch={self.config.batch}, "
            f"high={self.config.high}, discipline={self.config.discipline})"
        )
