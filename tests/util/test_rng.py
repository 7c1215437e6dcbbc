"""Tests for repro.util.rng: determinism and stream independence."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import (
    ParkedStream, RngRegistry, StreamClosedError, derive_seed, make_rng)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_differs_by_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_sensitivity(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "ab")
        assert derive_seed(42, "a", "b") != derive_seed(42, "b", "a")

    def test_no_separator_collision(self):
        # "a/b" as one name must differ from ("a", "b") path.
        assert derive_seed(42, "a/b") != derive_seed(42, "a", "b")
        # and ("a/", "b") vs ("a", "/b") must differ too.
        assert derive_seed(42, "a/", "b") != derive_seed(42, "a", "/b")

    @given(st.integers(min_value=0, max_value=2**63), st.text(max_size=30))
    def test_always_in_64bit_range(self, root, name):
        seed = derive_seed(root, name)
        assert 0 <= seed < 2**64


class TestMakeRng:
    def test_independent_streams(self):
        a = make_rng(7, "x")
        b = make_rng(7, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_reproducible(self):
        a = make_rng(7, "x")
        b = make_rng(7, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_returns_random_instance(self):
        assert isinstance(make_rng(0, "s"), random.Random)


class TestRngRegistry:
    def test_stream_memoised(self):
        reg = RngRegistry(3)
        assert reg.stream("net") is reg.stream("net")

    def test_streams_differ(self):
        reg = RngRegistry(3)
        assert reg.stream("net") is not reg.stream("dns")

    @pytest.mark.parametrize("first", ["path", "joined"])
    def test_slash_in_a_name_is_not_a_path(self, first):
        # ("a", "b") and ("a/b",) derive different seeds, so each must
        # get its own generator whichever is asked for first.
        reg = RngRegistry(3)
        if first == "path":
            path, joined = reg.stream("a", "b"), reg.stream("a/b")
        else:
            joined, path = reg.stream("a/b"), reg.stream("a", "b")
        assert path is not joined
        assert path.random() == make_rng(3, "a", "b").random()
        assert joined.random() == make_rng(3, "a/b").random()

    def test_prefixed_and_direct_paths_derive_one_seed(self):
        prefix = RngRegistry(3).prefixed("population", "7")
        assert prefix.derive("txid", "0") == derive_seed(
            3, "population", "7", "txid", "0")
        assert prefix.derive("txid/0") != prefix.derive("txid", "0")

    def test_root_seed_property(self):
        assert RngRegistry(99).root_seed == 99

    def test_fork_produces_disjoint_universe(self):
        reg = RngRegistry(3)
        child = reg.fork("attacks")
        assert child.root_seed != reg.root_seed
        v_child = child.stream("s").random()
        v_parent = reg.stream("s").random()
        assert v_child != v_parent

    def test_fork_deterministic(self):
        a = RngRegistry(3).fork("x").stream("s").random()
        b = RngRegistry(3).fork("x").stream("s").random()
        assert a == b

    def test_shuffled_returns_copy(self):
        reg = RngRegistry(5)
        items = [1, 2, 3, 4, 5]
        shuffled = reg.shuffled(items, "shuffle")
        assert items == [1, 2, 3, 4, 5]
        assert sorted(shuffled) == items

    def test_shuffled_deterministic(self):
        a = RngRegistry(5).shuffled(list(range(20)), "s")
        b = RngRegistry(5).shuffled(list(range(20)), "s")
        assert a == b

    def test_sample(self):
        reg = RngRegistry(5)
        picked = reg.sample(range(100), 10, "pick")
        assert len(picked) == 10
        assert len(set(picked)) == 10

    def test_iter_seeds_deterministic_sequence(self):
        reg = RngRegistry(11)
        it1 = reg.iter_seeds("mc")
        it2 = RngRegistry(11).iter_seeds("mc")
        first = [next(it1) for _ in range(5)]
        second = [next(it2) for _ in range(5)]
        assert first == second
        assert len(set(first)) == 5

    @given(st.integers(min_value=0, max_value=2**32))
    def test_same_root_same_draws(self, root):
        a = RngRegistry(root).stream("s").random()
        b = RngRegistry(root).stream("s").random()
        assert a == b


#: One call on a stream, as ``(method, args)``; ``("park", ())``
#: resumes it from its seed and word count, and ``("random", (n,))``
#: stands for ``n`` consecutive
#: ``random()`` calls (two words each), so a short program can run the
#: Mersenne Twister through several 624-word twists.
_CALLS = st.one_of(
    st.tuples(st.integers(-50, 50), st.integers(0, 10**12)).map(
        lambda ab: ("randint", (ab[0], ab[0] + ab[1]))),
    st.integers(1, 2**70).map(lambda n: ("randrange", (n,))),
    st.integers(1, 40).map(lambda n: ("choice", (list(range(n)),))),
    st.just(("uniform", (-2.5, 7.0))),
    st.integers(1, 400).map(lambda n: ("random", (n,))),
    st.just(("expovariate", (0.25,))),
    st.integers(0, 100).map(lambda k: ("getrandbits", (k,))),
    st.integers(0, 30).map(lambda k: ("sample", (list(range(30)), k))),
    st.just(("park", ())),
)


def _replay(stream, calls, seed=None) -> list:
    """Run ``calls`` on ``stream``; with a ``seed``, each park replaces
    the stream by a :class:`ParkedStream` resumed from its word count."""
    outputs = []
    for method, args in calls:
        if method == "park":
            if seed is not None:
                stream = ParkedStream(seed, stream.words)
        elif method == "random":
            outputs.append([stream.random() for _ in range(args[0])])
        else:
            outputs.append(getattr(stream, method)(*args))
    outputs.append(stream.getstate())
    return outputs


class TestParkedStream:
    """A stream resumed from its seed and word count draws exactly what
    one long-lived generator over the same seed draws, however often
    it is parked and resumed."""

    @given(st.integers(0, 2**64 - 1), st.lists(_CALLS, max_size=40))
    def test_draws_and_final_state_match_a_plain_generator(self, seed,
                                                            calls):
        # The outputs end with each stream's final getstate().
        assert (_replay(ParkedStream(seed), calls, seed)
                == _replay(random.Random(seed), calls))

    def test_parking_across_several_twists(self):
        # 3000 random() calls = 6000 words, resumed every 7th call: the
        # skip crosses nine twists of the 624-word state.
        parked, plain = ParkedStream(11), random.Random(11)
        for i in range(3000):
            if i % 7 == 0:
                parked = ParkedStream(11, parked.words)
            assert parked.random() == plain.random()
        parked = ParkedStream(11, parked.words)
        assert parked.getstate() == plain.getstate()

    def test_prefixed_parked_stream_draws_the_make_rng_sequence(self):
        # A stream rebuilt each time from a prefixed seed and the word
        # count its last build reached, as a fleet round does.
        seed = RngRegistry(3).prefixed("population", "7").derive("txid", "0")
        expected = make_rng(3, "population", "7", "txid", "0")
        drawn, words = [], 0
        for _ in range(5):
            stream = ParkedStream(seed, words)
            drawn.append(stream.randrange(1 << 16))
            words = stream.words
        assert drawn == [expected.randrange(1 << 16) for _ in range(5)]

    def test_parked_streams_are_not_memoised(self):
        # Two streams built from one seed and word count share no
        # generator: each draws the same next value on its own.
        seed = RngRegistry(3).prefixed("population", "7").derive("select")
        first = ParkedStream(seed)
        first.random()
        second, third = (ParkedStream(seed, first.words),
                         ParkedStream(seed, first.words))
        assert second is not third
        assert second.random() == third.random() == first.random()

    @pytest.mark.parametrize("drawn", [False, True])
    def test_draw_after_close_raises(self, drawn):
        stream = ParkedStream(5)
        if drawn:
            stream.randint(1, 6)
        stream.close()
        resumed = ParkedStream(5, stream.words)
        assert stream.words is resumed.words is None
        for closed in (stream, resumed):
            with pytest.raises(StreamClosedError):
                closed.choice([1, 2, 3])
            with pytest.raises(StreamClosedError):
                closed.getrandbits(8)
