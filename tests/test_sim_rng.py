"""Determinism and independence of the named RNG streams."""

import pytest

from repro.sim.rng import RngStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "dram") == derive_seed(42, "dram")

    def test_name_sensitivity(self):
        assert derive_seed(42, "dram") != derive_seed(42, "mm")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "dram") != derive_seed(2, "dram")

    def test_64_bit_range(self):
        for seed in (0, 1, 2**63):
            assert 0 <= derive_seed(seed, "x") < 2**64


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a = RngStreams(7).stream("attack")
        b = RngStreams(7).stream("attack")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_are_memoised(self):
        streams = RngStreams(7)
        assert streams.stream("x") is streams.stream("x")
        assert streams.numpy_stream("x") is streams.numpy_stream("x")

    def test_different_names_are_independent(self):
        streams = RngStreams(7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_consuming_one_stream_does_not_shift_another(self):
        left = RngStreams(7)
        right = RngStreams(7)
        left.stream("noise").random()  # extra consumption on one side only
        assert (
            left.stream("signal").random() == right.stream("signal").random()
        )

    def test_numpy_streams_deterministic(self):
        a = RngStreams(9).numpy_stream("cells").integers(0, 100, size=8)
        b = RngStreams(9).numpy_stream("cells").integers(0, 100, size=8)
        assert list(a) == list(b)

    def test_spawn_derives_child(self):
        parent = RngStreams(5)
        child1 = parent.spawn("trial")
        child2 = parent.spawn("trial")
        assert child1.master_seed == child2.master_seed
        assert child1.master_seed != parent.master_seed

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams("seed")  # type: ignore[arg-type]

    def test_repr_mentions_seed(self):
        assert "123" in repr(RngStreams(123))
