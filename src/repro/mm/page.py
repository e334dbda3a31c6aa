"""Page frame descriptors.

Mirrors (a small slice of) the kernel's ``struct page``: every physical
frame has a descriptor tracking where it currently lives in the allocator
state machine.  The legal states and transitions are:

    FREE_BUDDY  --alloc-->  ALLOCATED  --free(order 0)-->  ON_PCP
        ^                       |                             |
        |                       +--free(order > 0)------------+--spill/
        +------------------------------------------------------   drain

``RESERVED`` frames (e.g. a hole at the start of ZONE_DMA) never enter the
allocator.  The descriptor also remembers the owning pid while allocated —
the experiments use that to ask "who holds this frame now?", which is the
measurable core of the steering attack.

Storage is columnar and Python-native: a ``bytearray`` for the state
code and an ``array('q')`` each for the order, the owner and the
allocation stamp.  A 64 MiB module needs 16 K descriptors; as columns they
are four flat buffers instead of 16 K Python objects, and they pickle as
raw bytes, which is what makes machine snapshots cheap to pickle and fork.

The allocator writes the columns through :class:`FrameTable`'s pfn-level
methods (:meth:`~FrameTable.mark`, :meth:`~FrameTable.claim`,
:meth:`~FrameTable.release`, :meth:`~FrameTable.state`), using the module
ints :data:`FREE_BUDDY`, :data:`ON_PCP` and :data:`ALLOCATED` as state
codes.  :class:`PageFrame` is the public per-frame view over the same
columns, for inspection and tests.
"""

from __future__ import annotations

import enum
from array import array

import numpy as np

from repro.sim.errors import ConfigError


class PageFlags(enum.Enum):
    """Allocator state of one page frame."""

    RESERVED = "reserved"
    FREE_BUDDY = "free_buddy"
    ON_PCP = "on_pcp"
    ALLOCATED = "allocated"


#: State codes as stored in the ``flags`` column (``PageFlags`` order).
RESERVED, FREE_BUDDY, ON_PCP, ALLOCATED = range(4)
_FLAG_OF = tuple(PageFlags)
_CODE_OF = {flag: code for code, flag in enumerate(_FLAG_OF)}
_NO_OWNER = -1


class PageFrame:
    """Descriptor for one physical page frame (a view into a frame table)."""

    __slots__ = ("pfn", "_table", "_idx")

    def __init__(
        self,
        pfn: int,
        flags: PageFlags = PageFlags.FREE_BUDDY,
        order: int = 0,
        owner_pid: int | None = None,
        alloc_stamp: int = 0,
        *,
        _table: FrameTable | None = None,
    ):
        index = pfn
        if _table is None:
            # Standalone descriptor: back it with a private 1-frame table.
            _table = FrameTable(1)
            index = 0
            _table._flags[0] = _CODE_OF[flags]
            _table._order[0] = order
            _table._owner[0] = _NO_OWNER if owner_pid is None else owner_pid
            _table._stamp[0] = alloc_stamp
        self.pfn = pfn
        self._table = _table
        self._idx = index

    # -- column-backed fields ------------------------------------------------

    @property
    def flags(self) -> PageFlags:
        return _FLAG_OF[self._table._flags[self._idx]]

    @flags.setter
    def flags(self, value: PageFlags) -> None:
        self._table._flags[self._idx] = _CODE_OF[value]

    @property
    def order(self) -> int:
        """Buddy order of the free block this frame heads (head frames only)."""
        return self._table._order[self._idx]

    @order.setter
    def order(self, value: int) -> None:
        self._table._order[self._idx] = value

    @property
    def owner_pid(self) -> int | None:
        owner = self._table._owner[self._idx]
        return None if owner == _NO_OWNER else owner

    @owner_pid.setter
    def owner_pid(self, value: int | None) -> None:
        self._table._owner[self._idx] = _NO_OWNER if value is None else value

    @property
    def alloc_stamp(self) -> int:
        """Monotonic stamp of the last allocation, for reuse-distance stats."""
        return self._table._stamp[self._idx]

    @alloc_stamp.setter
    def alloc_stamp(self, value: int) -> None:
        self._table._stamp[self._idx] = value

    def mark(self, flags: PageFlags) -> None:
        """Transition to ``flags``."""
        self._table.mark(self._idx, _CODE_OF[flags])

    @property
    def is_free(self) -> bool:
        """True when the frame is available (in the buddy or on a pcp list)."""
        return self._table._flags[self._idx] in (FREE_BUDDY, ON_PCP)

    def __repr__(self) -> str:
        return (
            f"PageFrame(pfn={self.pfn}, flags={self.flags}, order={self.order}, "
            f"owner_pid={self.owner_pid}, alloc_stamp={self.alloc_stamp})"
        )


class FrameTable:
    """Dense columnar table of page-frame descriptors for a frame range.

    The pfn-level methods are the allocator's write path; they take pfns
    the caller has already validated against its own range.
    """

    def __init__(self, total_frames: int):
        if total_frames <= 0:
            raise ConfigError(f"total_frames must be positive, got {total_frames}")
        self.total_frames = total_frames
        self._flags = bytearray([FREE_BUDDY]) * total_frames
        self._order = array("q", bytes(8 * total_frames))
        self._owner = array("q", [_NO_OWNER]) * total_frames
        self._stamp = array("q", bytes(8 * total_frames))

    def __getitem__(self, pfn: int) -> PageFrame:
        if not 0 <= pfn < self.total_frames:
            raise ConfigError(f"pfn {pfn} out of range [0, {self.total_frames})")
        return PageFrame(int(pfn), _table=self)

    def __len__(self) -> int:
        return self.total_frames

    # -- allocator write path ----------------------------------------------------

    def state(self, pfn: int) -> int:
        """State code of frame ``pfn``."""
        return self._flags[pfn]

    def find_state(self, code: int, start: int, stop: int) -> int:
        """First pfn in ``[start, stop)`` in state ``code``, or -1."""
        return self._flags.find(code, start, stop)

    def mark(self, pfn: int, code: int) -> None:
        """Move frame ``pfn`` to state ``code``."""
        self._flags[pfn] = code

    def claim(self, pfn: int, count: int, owner_pid: int | None, stamp: int) -> None:
        """Mark ``count`` frames from ``pfn`` ALLOCATED to ``owner_pid`` at ``stamp``."""
        owner = _NO_OWNER if owner_pid is None else owner_pid
        if count == 1:
            self._flags[pfn] = ALLOCATED
            self._owner[pfn] = owner
            self._stamp[pfn] = stamp
        else:
            self._flags[pfn:pfn + count] = bytes((ALLOCATED,)) * count
            self._owner[pfn:pfn + count] = array("q", [owner]) * count
            self._stamp[pfn:pfn + count] = array("q", [stamp]) * count

    def release(self, pfn: int, count: int, code: int = FREE_BUDDY) -> None:
        """Move ``count`` frames from ``pfn`` to free state ``code``, unowned."""
        if count == 1:
            self._flags[pfn] = code
            self._owner[pfn] = _NO_OWNER
        else:
            self._flags[pfn:pfn + count] = bytes((code,)) * count
            self._owner[pfn:pfn + count] = array("q", [_NO_OWNER]) * count

    def set_order(self, pfn: int, order: int) -> None:
        """Record the order of the free block frame ``pfn`` heads."""
        self._order[pfn] = order

    # -- inspection ----------------------------------------------------------------

    def owned_by(self, pid: int) -> list[int]:
        """All pfns currently allocated to ``pid``."""
        flags = np.frombuffer(self._flags, dtype=np.uint8)
        owner = np.frombuffer(self._owner, dtype=np.int64)
        mask = (flags == ALLOCATED) & (owner == pid)
        return np.flatnonzero(mask).tolist()

    def count_state(self, flags: PageFlags) -> int:
        """Number of frames currently in the given state."""
        return self._flags.count(_CODE_OF[flags])
