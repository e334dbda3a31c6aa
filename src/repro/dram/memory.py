"""Physical memory byte store with lazy, copy-on-write frame materialisation.

Frames are materialised (as 4 KiB numpy arrays) only when first written or
when a disturbance flip lands in them; untouched frames read as zeros.
This keeps multi-GiB simulated modules cheap while preserving exact byte
semantics for the frames the experiments actually touch.

On top of laziness the store supports structural sharing: ``share_frames``
hands out the frame dict with every frame's refcount bumped, so a machine
snapshot and all its forks reference the *same* page payloads.  A frame is
only copied when a writer holds it at refcount > 1 (copy-on-write), which
makes forking a warm machine O(1) in module size instead of O(bytes
touched).  ``cow_generation`` counts how many times the store has been
shared; per-store counters feed the ``dram.memory.cow.*`` metric family.
"""

from __future__ import annotations

import numpy as np

from repro.sim.errors import ConfigError
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE

_ZERO_PAGE = bytes(PAGE_SIZE)


def _frame_from_bytes(payload: bytes) -> "_Frame":
    return _Frame(np.frombuffer(payload, dtype=np.uint8).copy())


class _Frame:
    """One materialised 4 KiB frame plus its structural-sharing refcount."""

    __slots__ = ("data", "refs")

    def __init__(self, data: np.ndarray, refs: int = 1):
        self.data = data
        self.refs = refs

    def __reduce__(self):
        # A plainly pickled frame rematerialises as a private (refs=1) copy;
        # snapshot shipping bypasses this with a compact packed payload.
        return (_frame_from_bytes, (self.data.tobytes(),))

    def __deepcopy__(self, memo):
        clone = _Frame(self.data.copy())
        memo[id(self)] = clone
        return clone


class PhysicalMemory:
    """Byte-addressable physical memory of ``total_bytes`` capacity."""

    def __init__(self, total_bytes: int):
        if total_bytes <= 0 or total_bytes % PAGE_SIZE:
            raise ConfigError(
                f"total_bytes must be a positive multiple of {PAGE_SIZE}, got {total_bytes}"
            )
        self.total_bytes = total_bytes
        self.total_frames = total_bytes >> PAGE_SHIFT
        self._frames: dict[int, _Frame] = {}
        # Optional observer of ordinary stores: called as hook(addr, length)
        # after every write-path mutation.  The ECC model uses it to learn
        # that a word was rewritten (disturbance flips applied by the
        # controller go through apply_disturbance_flip, which does NOT
        # notify).
        self.write_hook = None
        # Copy-on-write bookkeeping.  cow_generation increments every time
        # this store's frames are shared out; cow_copies counts frames that
        # had to be privatised on write; cow_shares counts share events.
        self.cow_generation = 0
        self.cow_copies = 0
        self.cow_shares = 0

    def __del__(self):
        frames = getattr(self, "_frames", None)
        if frames:
            for frame in frames.values():
                frame.refs -= 1
            frames.clear()

    def _notify(self, addr: int, length: int) -> None:
        if self.write_hook is not None and length > 0:
            self.write_hook(addr, length)

    # -- bounds helpers ------------------------------------------------------

    def check_range(self, addr: int, length: int) -> None:
        """Raise :class:`ConfigError` unless ``[addr, addr + length)`` is in the module."""
        if length < 0:
            raise ConfigError(f"length must be non-negative, got {length}")
        if addr < 0 or addr + length > self.total_bytes:
            raise ConfigError(
                f"physical range [{addr:#x}, {addr + length:#x}) outside module "
                f"[0, {self.total_bytes:#x})"
            )

    def materialized_frames(self) -> int:
        """Number of frames currently backed by real storage."""
        return len(self._frames)

    def shared_frames(self) -> int:
        """Number of materialised frames whose payload is shared (refs > 1)."""
        return sum(1 for frame in self._frames.values() if frame.refs > 1)

    def is_materialized(self, pfn: int) -> bool:
        """True if frame ``pfn`` has backing storage (has been written)."""
        return pfn in self._frames

    def is_shared(self, pfn: int) -> bool:
        """True if frame ``pfn`` is materialised and its payload is shared."""
        frame = self._frames.get(pfn)
        return frame is not None and frame.refs > 1

    # -- structural sharing --------------------------------------------------

    def share_frames(self) -> dict[int, _Frame]:
        """Hand out the frame table with every frame's refcount bumped.

        The caller becomes a co-owner of every payload: it must eventually
        either pass the dict to another ``PhysicalMemory`` (whose ``__del__``
        releases the refs) or call :meth:`release_frames` on them.
        """
        for frame in self._frames.values():
            frame.refs += 1
        self.cow_shares += 1
        self.cow_generation += 1
        return dict(self._frames)

    @staticmethod
    def bump_refs(frames: dict[int, _Frame]) -> dict[int, _Frame]:
        """Bump every frame's refcount and return a fresh table for a new owner."""
        for frame in frames.values():
            frame.refs += 1
        return dict(frames)

    @staticmethod
    def release_frames(frames: dict[int, _Frame]) -> None:
        """Drop one owner's claim on every frame in ``frames``."""
        for frame in frames.values():
            frame.refs -= 1
        frames.clear()

    @staticmethod
    def pack_frames(frames: dict[int, _Frame]) -> tuple[list[int], bytes]:
        """Serialize a frame table as (sorted pfn list, concatenated payloads)."""
        pfns = sorted(frames)
        if not pfns:
            return [], b""
        payload = np.concatenate([frames[pfn].data for pfn in pfns])
        return pfns, payload.tobytes()

    @staticmethod
    def unpack_frames(pfns: list[int], payload: bytes) -> dict[int, _Frame]:
        """Rebuild a frame table from :meth:`pack_frames` output (refs=1 each)."""
        if not pfns:
            return {}
        if len(payload) != len(pfns) * PAGE_SIZE:
            raise ConfigError(
                f"packed frame payload is {len(payload)} bytes, "
                f"expected {len(pfns) * PAGE_SIZE} for {len(pfns)} frames"
            )
        # One writable backing buffer; each frame is a 4 KiB view into it.
        # Views are safe: any fork that writes sees refs > 1 and privatises.
        store = np.frombuffer(payload, dtype=np.uint8).copy()
        return {
            pfn: _Frame(store[i * PAGE_SIZE : (i + 1) * PAGE_SIZE])
            for i, pfn in enumerate(pfns)
        }

    def _frame_for_write(self, pfn: int) -> np.ndarray:
        frame = self._frames.get(pfn)
        if frame is None:
            frame = _Frame(np.zeros(PAGE_SIZE, dtype=np.uint8))
            self._frames[pfn] = frame
        elif frame.refs > 1:
            # Copy-on-write: leave the shared payload to the other owners
            # and continue with a private copy.
            frame.refs -= 1
            frame = _Frame(frame.data.copy())
            self._frames[pfn] = frame
            self.cow_copies += 1
        return frame.data

    # -- byte access -----------------------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes starting at physical address ``addr``."""
        self.check_range(addr, length)
        out = bytearray()
        remaining = length
        cursor = addr
        while remaining > 0:
            pfn = cursor >> PAGE_SHIFT
            offset = cursor & (PAGE_SIZE - 1)
            chunk = min(remaining, PAGE_SIZE - offset)
            frame = self._frames.get(pfn)
            if frame is None:
                out += _ZERO_PAGE[offset : offset + chunk]
            else:
                out += frame.data[offset : offset + chunk].tobytes()
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at physical address ``addr``."""
        self.check_range(addr, len(data))
        self._notify(addr, len(data))
        cursor = addr
        view = memoryview(data)
        while view:
            pfn = cursor >> PAGE_SHIFT
            offset = cursor & (PAGE_SIZE - 1)
            chunk = min(len(view), PAGE_SIZE - offset)
            frame = self._frame_for_write(pfn)
            frame[offset : offset + chunk] = np.frombuffer(view[:chunk], dtype=np.uint8)
            cursor += chunk
            view = view[chunk:]

    def read_byte(self, addr: int) -> int:
        """Read a single byte."""
        self.check_range(addr, 1)
        frame = self._frames.get(addr >> PAGE_SHIFT)
        if frame is None:
            return 0
        return int(frame.data[addr & (PAGE_SIZE - 1)])

    def write_byte(self, addr: int, value: int) -> None:
        """Write a single byte (value 0..255)."""
        if not 0 <= value <= 0xFF:
            raise ConfigError(f"byte value {value} out of range [0, 255]")
        self.check_range(addr, 1)
        self._notify(addr, 1)
        frame = self._frame_for_write(addr >> PAGE_SHIFT)
        frame[addr & (PAGE_SIZE - 1)] = value

    # -- bit-level access (used by the flip machinery) ----------------------

    def get_bit(self, addr: int, bit: int) -> int:
        """Read bit ``bit`` (0 = LSB) of the byte at ``addr``."""
        if not 0 <= bit <= 7:
            raise ConfigError(f"bit index {bit} out of range [0, 7]")
        return (self.read_byte(addr) >> bit) & 1

    def frame_bit(self, pfn: int, offset: int, bit: int) -> int:
        """Bit ``bit`` of byte ``offset`` in frame ``pfn``, without a range check.

        The controller's per-cell victim scan reads through here; its victim
        plans range-check every cell once, when they are built.
        """
        frame = self._frames.get(pfn)
        return 0 if frame is None else (frame.data.item(offset) >> bit) & 1

    def gather_bits(self, addrs: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """Vector form of :meth:`get_bit`: bit ``bits[i]`` of byte ``addrs[i]``.

        Returns a uint8 0/1 array.  Unmaterialised frames read as zero, the
        same as the scalar path.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int64)
        if addrs.size == 0:
            return np.zeros(0, dtype=np.uint8)
        self.check_range(int(addrs.min()), 1)
        self.check_range(int(addrs.max()), 1)
        pfns = addrs >> PAGE_SHIFT
        offsets = addrs & (PAGE_SIZE - 1)
        values = np.zeros(addrs.shape, dtype=np.int64)
        for pfn in np.unique(pfns):
            frame = self._frames.get(int(pfn))
            if frame is None:
                continue
            mask = pfns == pfn
            values[mask] = frame.data[offsets[mask]]
        return ((values >> bits) & 1).astype(np.uint8)

    def flip_bit(self, addr: int, bit: int) -> int:
        """XOR bit ``bit`` of the byte at ``addr``; returns the new bit value."""
        byte = self.read_byte(addr) ^ (1 << bit)
        self.write_byte(addr, byte)
        return (byte >> bit) & 1

    def apply_disturbance_flip(self, addr: int, bit: int, value: int) -> None:
        """Set a bit *without* notifying the write hook.

        Used exclusively by the memory controller when a Rowhammer flip
        materialises: the data silently changes underneath the ECC state,
        unlike an ordinary store.
        """
        if value not in (0, 1):
            raise ConfigError(f"bit value must be 0 or 1, got {value}")
        self.check_range(addr, 1)
        frame = self._frame_for_write(addr >> PAGE_SHIFT)
        offset = addr & (PAGE_SIZE - 1)
        if value:
            frame[offset] |= np.uint8(1 << bit)
        else:
            frame[offset] &= np.uint8(0xFF ^ (1 << bit))

    # -- frame helpers ----------------------------------------------------------

    def clear_frame(self, pfn: int) -> None:
        """Reset frame ``pfn`` to zeros and drop its backing storage."""
        self.check_range(pfn << PAGE_SHIFT, PAGE_SIZE)
        self._notify(pfn << PAGE_SHIFT, PAGE_SIZE)
        frame = self._frames.pop(pfn, None)
        if frame is not None:
            frame.refs -= 1

    def frame_snapshot(self, pfn: int) -> bytes:
        """Immutable copy of the 4 KiB frame ``pfn``."""
        self.check_range(pfn << PAGE_SHIFT, PAGE_SIZE)
        frame = self._frames.get(pfn)
        return frame.data.tobytes() if frame is not None else _ZERO_PAGE
