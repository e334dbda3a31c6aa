"""Differential test: the frame table and allocator against the numpy reference.

The same operation script runs on a ``FrameTable``/``BuddyAllocator``/
``PerCpuPageCache`` stack and on the reference stack of
``tests/mm_reference.py`` (numpy columns, one view per frame access, every
frame of every inserted block re-marked).  After every step both stacks
must agree on every frame's ``flags``, ``order``, ``owner_pid`` and
``alloc_stamp``, on the buddy free lists and on the pcp lists.  The
``nightly`` copy runs ten times the examples.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mm.buddy import BuddyAllocator
from repro.mm.page import FrameTable
from repro.mm.pcp import PcpConfig, PerCpuPageCache
from repro.sim.errors import AllocationError, OutOfMemoryError
from tests.mm_reference import (
    ReferenceBuddyAllocator,
    ReferenceFrameTable,
    ReferencePerCpuPageCache,
)

# A range that is not a power of two and does not start at pfn 0, so the
# seeded free lists mix orders and the table has frames outside the range.
TOTAL, START, END, MAX_ORDER, CPUS = 176, 16, 152, 4, 2
OWNERS = st.sampled_from([None, 1, 2, 3])

ops = st.lists(
    st.one_of(
        st.tuples(st.just("buddy_alloc"), st.integers(0, 3), OWNERS),
        st.tuples(st.just("buddy_free"), st.integers(0, 63)),
        st.tuples(st.just("pcp_alloc"), st.integers(0, CPUS - 1), OWNERS),
        st.tuples(st.just("pcp_free"), st.integers(0, CPUS - 1), st.integers(0, 63)),
        st.tuples(st.just("drain"), st.integers(0, CPUS - 1)),
        st.tuples(st.just("double_free"), st.integers(0, 63)),
    ),
    min_size=5,
    max_size=80,
)


class Stack:
    """One frame table with its buddy allocator and per-CPU caches."""

    def __init__(self, table_cls, buddy_cls, pcp_cls, config):
        self.frames = table_cls(TOTAL)
        self.buddy = buddy_cls(self.frames, START, END, max_order=MAX_ORDER)
        self.pcps = [pcp_cls(self.buddy, config) for _ in range(CPUS)]

    def descriptors(self):
        return [
            (f.flags, f.order, f.owner_pid, f.alloc_stamp)
            for f in (self.frames[pfn] for pfn in range(TOTAL))
        ]

    def lists(self):
        return (
            [list(blocks) for blocks in self.buddy.free_lists],
            self.buddy.free_pages,
            self.buddy.split_count,
            self.buddy.merge_count,
            [
                (pcp.snapshot(), pcp.served_from_cache, pcp.refills, pcp.spills, pcp.drains)
                for pcp in self.pcps
            ],
        )


def outcome(call):
    """``call()``'s result, or the type and message of what it raised."""
    try:
        return call()
    except (AllocationError, OutOfMemoryError) as exc:
        return type(exc), str(exc)


def run_script(script, discipline):
    config = PcpConfig(batch=4, high=8, discipline=discipline)
    stack = Stack(FrameTable, BuddyAllocator, PerCpuPageCache, config)
    reference = Stack(
        ReferenceFrameTable, ReferenceBuddyAllocator, ReferencePerCpuPageCache, config
    )
    blocks: list[tuple[int, int]] = []  # (pfn, order) allocated from the buddy
    pages: list[int] = []  # order-0 frames a pcp may free
    assert stack.descriptors() == reference.descriptors()
    assert stack.lists() == reference.lists()
    for stamp, (op, *args) in enumerate(script, start=1):
        if op == "buddy_alloc":
            order, owner = args
            calls = [lambda s=s: s.buddy.alloc(order, owner, stamp) for s in (stack, reference)]
        elif op == "pcp_alloc":
            cpu, owner = args
            calls = [lambda s=s: s.pcps[cpu].alloc(owner, stamp) for s in (stack, reference)]
        elif op == "buddy_free" and blocks:
            pfn, order = blocks.pop(args[0] % len(blocks))
            if order == 0:
                pages.remove(pfn)
            calls = [lambda s=s: s.buddy.free(pfn, order) for s in (stack, reference)]
        elif op == "pcp_free" and pages:
            cpu, pick = args
            pfn = pages.pop(pick % len(pages))
            blocks[:] = [block for block in blocks if block[0] != pfn]
            calls = [lambda s=s: s.pcps[cpu].free(pfn) for s in (stack, reference)]
        elif op == "drain":
            calls = [lambda s=s: s.pcps[args[0]].drain() for s in (stack, reference)]
        elif op == "double_free":
            free = [pfn for order_blocks in stack.buddy.free_lists for pfn in order_blocks]
            if not free:
                continue
            pfn = free[args[0] % len(free)]
            calls = [lambda s=s: s.buddy.free(pfn, 0) for s in (stack, reference)]
        else:
            continue
        got, expected = (outcome(call) for call in calls)
        assert got == expected, (op, args)
        if op in ("buddy_alloc", "pcp_alloc") and isinstance(got, int):
            order = args[0] if op == "buddy_alloc" else 0
            blocks.append((got, order))
            if order == 0:
                pages.append(got)
        assert stack.descriptors() == reference.descriptors(), (op, args)
        assert stack.lists() == reference.lists(), (op, args)


disciplines = st.sampled_from(["lifo", "fifo"])


class TestAgainstReference:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(script=ops, discipline=disciplines)
    def test_same_descriptors_and_lists(self, script, discipline):
        run_script(script, discipline)

    @pytest.mark.nightly
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(script=ops, discipline=disciplines)
    def test_same_descriptors_and_lists_wide(self, script, discipline):
        run_script(script, discipline)
