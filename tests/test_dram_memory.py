"""Physical memory store: lazy frames, copy-on-write sharing, byte/bit access."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.memory import PhysicalMemory
from repro.sim.errors import ConfigError
from repro.sim.units import MIB, PAGE_SIZE


@pytest.fixture
def mem():
    return PhysicalMemory(4 * MIB)


class TestLaziness:
    def test_untouched_memory_reads_zero(self, mem):
        assert mem.read(0, 64) == bytes(64)
        assert mem.materialized_frames() == 0

    def test_write_materializes_one_frame(self, mem):
        mem.write(100, b"hello")
        assert mem.materialized_frames() == 1
        assert mem.is_materialized(0)

    def test_straddling_write_materializes_two(self, mem):
        mem.write(PAGE_SIZE - 2, b"abcd")
        assert mem.materialized_frames() == 2

    def test_clear_frame_drops_storage(self, mem):
        mem.write(0, b"x" * 16)
        mem.clear_frame(0)
        assert not mem.is_materialized(0)
        assert mem.read(0, 16) == bytes(16)


class TestReadWrite:
    def test_round_trip(self, mem):
        mem.write(123, b"payload")
        assert mem.read(123, 7) == b"payload"

    def test_cross_page_round_trip(self, mem):
        data = bytes(range(256)) * 40  # 10240 bytes, > 2 pages
        mem.write(PAGE_SIZE - 100, data)
        assert mem.read(PAGE_SIZE - 100, len(data)) == data

    @given(
        offset=st.integers(min_value=0, max_value=2 * PAGE_SIZE),
        data=st.binary(min_size=1, max_size=300),
    )
    @settings(max_examples=100)
    def test_round_trip_property(self, offset, data):
        memory = PhysicalMemory(16 * PAGE_SIZE)
        memory.write(offset, data)
        assert memory.read(offset, len(data)) == data

    def test_byte_access(self, mem):
        mem.write_byte(5, 0xAB)
        assert mem.read_byte(5) == 0xAB

    def test_byte_value_range(self, mem):
        with pytest.raises(ConfigError):
            mem.write_byte(0, 256)

    def test_out_of_range(self, mem):
        with pytest.raises(ConfigError):
            mem.read(4 * MIB, 1)
        with pytest.raises(ConfigError):
            mem.write(4 * MIB - 1, b"ab")
        with pytest.raises(ConfigError):
            mem.read(0, -1)


class TestBitOps:
    def test_get_set(self, mem):
        mem.write_byte(10, 0x08)
        assert mem.get_bit(10, 3) == 1
        assert mem.get_bit(10, 2) == 0

    def test_flip(self, mem):
        assert mem.flip_bit(20, 7) == 1
        assert mem.read_byte(20) == 0x80
        assert mem.flip_bit(20, 7) == 0
        assert mem.read_byte(20) == 0

    def test_bit_index_validated(self, mem):
        with pytest.raises(ConfigError):
            mem.get_bit(0, 8)


class TestFrames:
    def test_snapshot_is_immutable_copy(self, mem):
        mem.write_byte(0, 1)
        snap = mem.frame_snapshot(0)
        mem.write_byte(0, 2)
        assert snap[0] == 1

    def test_snapshot_of_virgin_frame(self, mem):
        assert mem.frame_snapshot(3) == bytes(PAGE_SIZE)

    def test_total_frames(self, mem):
        assert mem.total_frames == 4 * MIB // PAGE_SIZE


class TestCopyOnWrite:
    def test_shared_then_diverge(self):
        a = PhysicalMemory(16 * PAGE_SIZE)
        a.write(0, b"hello")
        b = PhysicalMemory(16 * PAGE_SIZE)
        b._frames = a.share_frames()
        assert a.is_shared(0) and b.is_shared(0)
        assert b.read(0, 5) == b"hello"
        b.write(0, b"HELLO")
        # The writer diverged onto a private frame; the sharer is untouched.
        assert b.read(0, 5) == b"HELLO"
        assert a.read(0, 5) == b"hello"
        assert not a.is_shared(0) and not b.is_shared(0)
        assert b.cow_copies == 1
        assert a.cow_shares == 1 and a.cow_generation == 1

    def test_disturbance_flip_triggers_cow(self):
        a = PhysicalMemory(16 * PAGE_SIZE)
        a.write_byte(10, 0xFF)
        b = PhysicalMemory(16 * PAGE_SIZE)
        b._frames = a.share_frames()
        b.apply_disturbance_flip(10, 0, 0)
        assert b.read_byte(10) == 0xFE
        assert a.read_byte(10) == 0xFF
        assert b.cow_copies == 1

    def test_refcount_release_on_sharer_gc(self):
        a = PhysicalMemory(16 * PAGE_SIZE)
        a.write(0, b"x")
        frames = a.share_frames()
        frame = frames[0]
        assert frame.refs == 2
        b = PhysicalMemory(16 * PAGE_SIZE)
        b._frames = frames
        del b  # the co-owner dies; its claim on every payload is dropped
        assert frame.refs == 1
        a.write(0, b"y")  # sole owner again: writes in place, no copy
        assert a.cow_copies == 0

    def test_clear_frame_releases_shared_payload(self):
        a = PhysicalMemory(16 * PAGE_SIZE)
        a.write(0, b"x")
        b = PhysicalMemory(16 * PAGE_SIZE)
        b._frames = a.share_frames()
        b.clear_frame(0)
        assert not b.is_materialized(0)
        assert a.read(0, 1) == b"x"
        assert not a.is_shared(0)

    def test_pack_unpack_round_trip_of_partial_store(self):
        a = PhysicalMemory(16 * PAGE_SIZE)
        a.write(3 * PAGE_SIZE, b"alpha")
        a.write(7 * PAGE_SIZE, bytes([0xAB]) * PAGE_SIZE)
        pfns, payload = PhysicalMemory.pack_frames(a._frames)
        b = PhysicalMemory(16 * PAGE_SIZE)
        b._frames = PhysicalMemory.unpack_frames(pfns, payload)
        assert b.materialized_frames() == 2
        assert b.read(3 * PAGE_SIZE, 5) == b"alpha"
        assert b.read(7 * PAGE_SIZE, PAGE_SIZE) == bytes([0xAB]) * PAGE_SIZE
        assert b.read(0, 8) == bytes(8)  # untouched frames still read zero
        b.write(3 * PAGE_SIZE, b"OMEGA")  # rebuilt frames are writable
        assert b.read(3 * PAGE_SIZE, 5) == b"OMEGA"

    def test_unpack_rejects_mismatched_payload(self):
        with pytest.raises(ConfigError):
            PhysicalMemory.unpack_frames([1, 2], b"short")

    def test_gather_bits_matches_scalar_get_bit(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        mem.write(100, bytes(range(1, 17)))
        addrs = np.array([100, 101, 5 * PAGE_SIZE + 3, 110], dtype=np.int64)
        bits = np.array([0, 3, 7, 1], dtype=np.int64)
        got = mem.gather_bits(addrs, bits)
        assert got.tolist() == [
            mem.get_bit(int(a), int(b)) for a, b in zip(addrs, bits)
        ]

    def test_gather_bits_empty(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        assert mem.gather_bits(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0


class TestConstruction:
    def test_unaligned_size_rejected(self):
        with pytest.raises(ConfigError):
            PhysicalMemory(PAGE_SIZE + 1)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            PhysicalMemory(0)
