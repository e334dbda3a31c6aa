"""Size and time units used throughout the simulator.

The simulator follows the Linux/x86-64 convention of 4 KiB base pages.  Time
is kept in integer nanoseconds so the DRAM timing arithmetic stays exact.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4096 bytes, the x86-64 base page

NS = 1
US = 1_000 * NS
MS = 1_000 * US
SECOND = 1_000 * MS


def pages_for_bytes(n: int) -> int:
    """Number of base pages needed to hold ``n`` bytes (round up)."""
    if n < 0:
        raise ValueError(f"byte count must be non-negative, got {n}")
    return (n + PAGE_SIZE - 1) >> PAGE_SHIFT


def is_page_aligned(addr: int) -> bool:
    """True when ``addr`` sits on a base-page boundary."""
    return (addr & (PAGE_SIZE - 1)) == 0


def page_align_down(addr: int) -> int:
    """Round ``addr`` down to the containing page boundary."""
    return addr & ~(PAGE_SIZE - 1)


def page_align_up(addr: int) -> int:
    """Round ``addr`` up to the next page boundary (identity if aligned)."""
    return (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
