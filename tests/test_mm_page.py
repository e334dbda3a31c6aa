"""Page frame descriptors and the frame table."""

import pytest

from repro.mm.page import FrameTable, PageFlags, PageFrame
from repro.sim.errors import ConfigError


class TestPageFrame:
    def test_defaults(self):
        frame = PageFrame(pfn=7)
        assert frame.flags is PageFlags.FREE_BUDDY
        assert frame.owner_pid is None
        assert frame.is_free

    def test_is_free_states(self):
        frame = PageFrame(pfn=0)
        frame.mark(PageFlags.ON_PCP)
        assert frame.is_free
        frame.mark(PageFlags.ALLOCATED)
        assert not frame.is_free
        frame.mark(PageFlags.RESERVED)
        assert not frame.is_free


class TestFrameTable:
    def test_indexing(self):
        table = FrameTable(16)
        assert table[5].pfn == 5
        assert len(table) == 16

    def test_bounds(self):
        table = FrameTable(16)
        with pytest.raises(ConfigError):
            table[16]
        with pytest.raises(ConfigError):
            table[-1]

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            FrameTable(0)

    def test_owned_by(self):
        table = FrameTable(8)
        for pfn in (1, 3):
            table[pfn].mark(PageFlags.ALLOCATED)
            table[pfn].owner_pid = 42
        table[5].mark(PageFlags.ALLOCATED)
        table[5].owner_pid = 99
        assert table.owned_by(42) == [1, 3]

    def test_count_state(self):
        table = FrameTable(8)
        table[0].mark(PageFlags.ALLOCATED)
        assert table.count_state(PageFlags.ALLOCATED) == 1
        assert table.count_state(PageFlags.FREE_BUDDY) == 7
