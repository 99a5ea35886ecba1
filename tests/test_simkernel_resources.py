"""Unit tests for RandomStreams."""

import numpy as np

from repro.simkernel import RandomStreams, stable_hash


class TestRandomStreams:
    def test_same_seed_same_name_same_draws(self):
        a = RandomStreams(42).get("phone.3").random(5)
        b = RandomStreams(42).get("phone.3").random(5)
        assert np.allclose(a, b)

    def test_different_names_independent(self):
        streams = RandomStreams(42)
        a = streams.get("phone.1").random(100)
        b = streams.get("phone.2").random(100)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").random(10)
        b = RandomStreams(2).get("x").random(10)
        assert not np.allclose(a, b)

    def test_get_caches_generator(self):
        streams = RandomStreams(0)
        assert streams.get("s") is streams.get("s")

    def test_fresh_restarts_stream(self):
        streams = RandomStreams(0)
        first = streams.get("s").random(3)
        restarted = streams.fresh("s").random(3)
        assert np.allclose(first, restarted)

    def test_stable_hash_is_stable(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")
        assert all(0 <= w < 2**32 for w in stable_hash("abc"))

    def test_insertion_order_does_not_matter(self):
        s1 = RandomStreams(9)
        s1.get("a")
        draw1 = s1.get("b").random(4)
        s2 = RandomStreams(9)
        draw2 = s2.get("b").random(4)
        assert np.allclose(draw1, draw2)
