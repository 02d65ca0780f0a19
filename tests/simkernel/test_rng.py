"""Unit tests for named RNG streams."""

from repro.simkernel.rng import RngStreams


class TestRngStreams:
    def test_same_seed_same_stream_reproduces(self):
        a = RngStreams(5).stream("x")
        b = RngStreams(5).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_are_independent(self):
        streams = RngStreams(5)
        x = streams.stream("x")
        y = streams.stream("y")
        xs = [x.random() for _ in range(5)]
        # Drawing from y must not perturb x's future values.
        streams2 = RngStreams(5)
        x2 = streams2.stream("x")
        _ = [streams2.stream("y").random() for _ in range(100)]
        xs_head = [x2.random() for _ in range(5)]
        assert xs == xs_head

    def test_different_names_differ(self):
        streams = RngStreams(5)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_different_seeds_differ(self):
        assert RngStreams(1).stream("x").random() != RngStreams(2).stream("x").random()

    def test_stream_identity_cached(self):
        streams = RngStreams(0)
        assert streams.stream("s") is streams.stream("s")

    def test_numpy_stream_reproducible(self):
        a = RngStreams(9).numpy_stream("n").random(4)
        b = RngStreams(9).numpy_stream("n").random(4)
        assert (a == b).all()
