"""CPU cache model: hits, LRU eviction, clflush."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.cache import CpuCache, CpuCacheConfig
from repro.sim.errors import ConfigError


@pytest.fixture
def cache():
    return CpuCache(CpuCacheConfig(line_size=64, sets=4, ways=2))


class TestHitMiss:
    def test_first_access_misses(self, cache):
        assert cache.access(0) is False
        assert cache.misses == 1

    def test_second_access_hits(self, cache):
        cache.access(0)
        assert cache.access(0) is True
        assert cache.hits == 1

    def test_same_line_different_byte_hits(self, cache):
        cache.access(0)
        assert cache.access(63) is True

    def test_next_line_misses(self, cache):
        cache.access(0)
        assert cache.access(64) is False

    def test_hit_rate(self, cache):
        cache.access(0)
        cache.access(0)
        assert cache.hit_rate == 0.5

    def test_hit_rate_empty(self, cache):
        assert cache.hit_rate == 0.0


class TestLRU:
    def test_eviction_on_overflow(self, cache):
        # Set 0 holds lines whose (addr // 64) % 4 == 0: 0, 256, 512...
        cache.access(0)
        cache.access(256)
        cache.access(512)  # evicts line 0 (LRU, 2 ways)
        assert cache.contains(256)
        assert cache.contains(512)
        assert not cache.contains(0)

    def test_access_refreshes_lru(self, cache):
        cache.access(0)
        cache.access(256)
        cache.access(0)  # 256 is now LRU
        cache.access(512)
        assert cache.contains(0)
        assert not cache.contains(256)


class TestAccessRun:
    def test_equals_per_line_accesses(self):
        """Runs that start mid-cycle wrap past the last set; each must leave
        the flags, counters and per-set LRU order of the per-line loop."""
        config = CpuCacheConfig(sets=4, ways=2)
        run, loop = CpuCache(config), CpuCache(config)
        for first, count in [(0, 4), (128, 4), (192, 3), (256, 2), (64, 4), (512, 1), (0, 4)]:
            expected = [loop.access(first + 64 * i) for i in range(count)]
            assert run.access_run(first, count) == expected
        assert (run.hits, run.misses, run.evictions) == (loop.hits, loop.misses, loop.evictions)
        assert run.lru_order() == loop.lru_order()

    def test_rejects_more_lines_than_sets(self, cache):
        with pytest.raises(ConfigError):
            cache.access_run(0, 5)


@st.composite
def page_streams(draw):
    """A warmed-up cache and a stream of distinct aligned runs over it."""
    config = CpuCacheConfig(
        sets=draw(st.sampled_from([4, 8, 16])), ways=draw(st.integers(1, 4))
    )
    count = draw(st.sampled_from([c for c in (1, 2, 4, 8) if c <= config.sets]))
    run_bytes = count * config.line_size
    frames = st.integers(0, 3 * config.capacity_bytes // run_bytes)
    warmup = draw(st.lists(
        st.one_of(
            st.tuples(st.just("access_run"), frames),
            st.tuples(st.just("flush"), st.integers(0, 3 * config.capacity_bytes - 1)),
        ),
        max_size=40,
    ))
    stream = draw(st.lists(frames, unique=True, max_size=3 * config.sets * config.ways))
    return config, count, warmup, stream


class TestAccessPages:
    """The closed-form stream against one ``access_run`` per run, in order."""

    @given(script=page_streams())
    @settings(max_examples=200, deadline=None)
    def test_equals_access_run_up_to_the_first_hit(self, script):
        config, count, warmup, stream = script
        run_bytes = count * config.line_size
        fast, slow = CpuCache(config), CpuCache(config)
        for cache in (fast, slow):
            for name, arg in warmup:
                if name == "flush":
                    cache.flush(arg)
                else:
                    cache.access_run(arg * run_bytes, count)
        served = fast.access_pages([frame * run_bytes for frame in stream], count)
        for frame in stream[:served]:
            assert not any(slow.access_run(frame * run_bytes, count))
        if served < len(stream):
            # The stream stops exactly where a run would hit.
            probe = CpuCache(config)
            probe._tags, probe._stamps = slow._tags.copy(), slow._stamps.copy()
            assert any(probe.access_run(stream[served] * run_bytes, count))
        assert (fast._tags == slow._tags).all()
        assert (fast._stamps == slow._stamps).all()
        assert (fast._tick, fast.hits, fast.misses, fast.evictions) == (
            slow._tick, slow.hits, slow.misses, slow.evictions
        )

    def test_stops_before_a_surviving_line(self):
        """A line cached at the start hits if fewer misses than its LRU
        position reached its set first; one pushed out first does not."""
        config = CpuCacheConfig(sets=4, ways=2)
        cache = CpuCache(config)
        cache.access_run(0, 4)  # frame 0 (4 lines) in every set
        # Frame 1 then frame 0: one miss per set leaves frame 0 cached.
        assert cache.access_pages([256, 0], 4) == 1
        cache = CpuCache(config)
        cache.access_run(0, 4)
        # Frames 1 and 2 first fill both ways, so frame 0 misses again.
        assert cache.access_pages([256, 512, 0], 4) == 3
        assert cache.misses == 16 and cache.evictions == 8

    def test_rejects_unaligned_runs(self, cache):
        with pytest.raises(ConfigError):
            cache.access_pages([64], 2)
        with pytest.raises(ConfigError):
            cache.access_pages([0], 3)


class TestFlush:
    def test_flush_evicts(self, cache):
        cache.access(0)
        assert cache.flush(0) is True
        assert not cache.contains(0)
        assert cache.access(0) is False  # misses again

    def test_flush_absent_line(self, cache):
        assert cache.flush(0) is False

    def test_flush_counts(self, cache):
        cache.access(0)
        cache.flush(0)
        assert cache.flushes == 1

    def test_flush_all(self, cache):
        for addr in (0, 64, 128):
            cache.access(addr)
        cache.flush_all()
        assert cache.occupancy() == 0


class TestConfig:
    def test_capacity(self):
        config = CpuCacheConfig(line_size=64, sets=512, ways=8)
        assert config.capacity_bytes == 256 * 1024

    def test_power_of_two_validation(self):
        with pytest.raises(ConfigError):
            CpuCacheConfig(line_size=48)
        with pytest.raises(ConfigError):
            CpuCacheConfig(sets=3)

    def test_ways_positive(self):
        with pytest.raises(ConfigError):
            CpuCacheConfig(ways=0)

    def test_negative_address_rejected(self, cache):
        with pytest.raises(ConfigError):
            cache.access(-1)

    def test_occupancy_bounded_by_capacity(self, cache):
        for addr in range(0, 64 * 64, 64):
            cache.access(addr)
        assert cache.occupancy() <= 4 * 2  # sets * ways

    def test_repr(self, cache):
        assert "hits=0" in repr(cache)


class TestCongruence:
    """The set-index surface eviction-set derivation builds on."""

    def test_way_stride(self):
        assert CpuCacheConfig(line_size=64, sets=4, ways=2).way_stride == 256
        assert CpuCacheConfig().way_stride == 64 * 512

    def test_set_index_matches_placement(self, cache):
        stride = cache.config.way_stride
        assert cache.set_index(0) == cache.set_index(stride)
        assert cache.set_index(0) != cache.set_index(64)

    def test_evictions_counter(self, cache):
        cache.access(0)
        cache.access(256)
        assert cache.evictions == 0
        cache.access(512)  # overflows the 2-way set
        assert cache.evictions == 1


class TestObsBinding:
    def test_gauges_reflect_counters(self, cache):
        from repro.obs import Observability

        obs = Observability()
        cache.bind_obs(obs)
        cache.access(0)
        cache.access(0)
        cache.access(256)
        cache.access(512)
        snapshot = obs.metrics.snapshot()
        assert snapshot["dram.cache.hits"] == 1
        assert snapshot["dram.cache.misses"] == 3
        assert snapshot["dram.cache.evictions"] == 1
        assert snapshot["dram.cache.hit_rate"] == 0.25
        assert snapshot["dram.cache.occupancy"] == cache.occupancy()


class ReferenceCache:
    """The cache as one ``OrderedDict`` per set (LRU first): the oracle.

    The tag-matrix :class:`CpuCache` replaced this model; every operation
    must return the same answer and leave the same counters and per-set
    LRU order.
    """

    def __init__(self, config):
        self.config = config
        self._sets = [OrderedDict() for _ in range(config.sets)]
        self.hits = self.misses = self.flushes = self.evictions = 0

    def _locate(self, phys):
        line = phys // self.config.line_size
        return self._sets[line % self.config.sets], line

    def access(self, phys):
        ways, tag = self._locate(phys)
        if tag in ways:
            ways.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways[tag] = None
        if len(ways) > self.config.ways:
            ways.popitem(last=False)
            self.evictions += 1
        return False

    def access_run(self, first, count):
        line = self.config.line_size
        return [self.access(first - first % line + i * line) for i in range(count)]

    def flush(self, phys):
        ways, tag = self._locate(phys)
        if tag in ways:
            del ways[tag]
            self.flushes += 1
            return True
        return False

    def contains(self, phys):
        ways, tag = self._locate(phys)
        return tag in ways

    def flush_all(self):
        for ways in self._sets:
            ways.clear()

    def occupancy(self):
        return sum(len(ways) for ways in self._sets)

    def lru_order(self):
        return [list(ways) for ways in self._sets]


@st.composite
def cache_scripts(draw):
    config = CpuCacheConfig(
        sets=draw(st.sampled_from([4, 8, 16])), ways=draw(st.integers(1, 4))
    )
    # Three times the capacity, so sets overflow and evict.
    addrs = st.integers(0, 3 * config.capacity_bytes - 1)
    op = st.one_of(
        st.tuples(st.just("access"), addrs),
        st.tuples(st.just("access_run"), addrs, st.integers(1, config.sets)),
        st.tuples(st.just("flush"), addrs),
        st.tuples(st.just("contains"), addrs),
        st.tuples(st.just("flush_all")),
    )
    return config, draw(st.lists(op, max_size=60))


class TestMatchesReferenceModel:
    @given(script=cache_scripts())
    @settings(max_examples=150, deadline=None)
    def test_random_operation_sequences(self, script):
        config, ops = script
        cache, reference = CpuCache(config), ReferenceCache(config)
        for name, *args in ops:
            assert getattr(cache, name)(*args) == getattr(reference, name)(*args)
            assert cache.lru_order() == reference.lru_order()
        assert (cache.hits, cache.misses, cache.evictions, cache.flushes) == (
            reference.hits, reference.misses, reference.evictions, reference.flushes
        )
        assert cache.occupancy() == reference.occupancy()
