"""Tests for repro.util.rng: determinism and stream independence."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import RngRegistry, derive_seed, make_rng


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

    def test_prefixed_and_direct_lookups_share_a_stream(self):
        reg = RngRegistry(3)
        prefix = reg.prefixed("population", "7")
        assert prefix.stream("txid", "0") is reg.stream(
            "population", "7", "txid", "0")
        assert prefix.stream("txid/0") is not prefix.stream("txid", "0")

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
