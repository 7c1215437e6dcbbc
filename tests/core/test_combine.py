"""Unit + property tests for Algorithm 1's pure combination step."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.policy import TruncationPolicy
from repro.core.pool import combine_answer_lists
from repro.netsim.address import IPAddress


def addresses(*octets):
    return [IPAddress(f"10.0.0.{o}") for o in octets]


class TestCombineBasics:
    def test_equal_lengths(self):
        pool, k, parts = combine_answer_lists({
            "r1": addresses(1, 2),
            "r2": addresses(3, 4),
            "r3": addresses(5, 6),
        })
        assert k == 2
        assert len(pool) == 6
        assert parts["r1"] == addresses(1, 2)

    def test_truncates_to_shortest(self):
        pool, k, parts = combine_answer_lists({
            "r1": addresses(1, 2, 3, 4),
            "r2": addresses(5),
            "r3": addresses(6, 7, 8),
        })
        assert k == 1
        assert len(pool) == 3
        assert parts["r1"] == addresses(1)
        assert parts["r2"] == addresses(5)
        assert parts["r3"] == addresses(6)

    def test_empty_list_truncates_all_to_zero(self):
        """§II fn.2: an empty poisoned answer is a DoS — pool collapses."""
        pool, k, parts = combine_answer_lists({
            "r1": addresses(1, 2),
            "r2": [],
        })
        assert k == 0
        assert pool == []

    def test_duplicates_preserved_as_multiset(self):
        """§IV: repeated addresses are individual servers."""
        pool, k, _ = combine_answer_lists({
            "r1": addresses(1, 1),
            "r2": addresses(1, 2),
        })
        assert len(pool) == 4
        assert pool.count(IPAddress("10.0.0.1")) == 3

    def test_resolver_order_preserved(self):
        pool, _, _ = combine_answer_lists({
            "first": addresses(1),
            "second": addresses(2),
        })
        assert pool == addresses(1, 2)

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            combine_answer_lists({})

    def test_single_resolver_degenerates_to_plain_lookup(self):
        pool, k, _ = combine_answer_lists({"only": addresses(1, 2, 3)})
        assert pool == addresses(1, 2, 3)
        assert k == 3


class TestTruncationPolicies:
    def test_none_policy_keeps_everything(self):
        pool, k, _ = combine_answer_lists({
            "r1": addresses(1, 2, 3, 4, 5),
            "r2": addresses(6),
        }, TruncationPolicy.NONE)
        assert len(pool) == 6
        assert k == 5

    def test_median_policy(self):
        pool, k, _ = combine_answer_lists({
            "r1": addresses(1),
            "r2": addresses(2, 3),
            "r3": addresses(4, 5, 6),
        }, TruncationPolicy.MEDIAN)
        assert k == 2
        assert len(pool) == 5  # 1 + 2 + 2

    def test_truncate_length_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy.SHORTEST.truncate_length([])

    def test_policy_apply(self):
        _, _, cut = combine_answer_lists({
            "a": addresses(1, 2, 3), "b": addresses(4)},
            TruncationPolicy.SHORTEST)
        assert cut == {"a": addresses(1), "b": addresses(4)}


# Hypothesis strategies for answer-list maps.
address_st = st.integers(min_value=0, max_value=255).map(
    lambda o: IPAddress(f"192.168.0.{o}"))
lists_st = st.dictionaries(
    keys=st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    values=st.lists(address_st, max_size=10),
    min_size=1, max_size=8)


class TestCombineProperties:
    @given(lists_st)
    def test_pool_size_is_n_times_k(self, answer_lists):
        pool, k, parts = combine_answer_lists(answer_lists)
        assert len(pool) == len(answer_lists) * k
        assert k == min(len(v) for v in answer_lists.values())

    @given(lists_st)
    def test_every_resolver_contributes_exactly_k(self, answer_lists):
        """The security core: no resolver exceeds a 1/N share."""
        pool, k, parts = combine_answer_lists(answer_lists)
        for name, part in parts.items():
            assert len(part) == k
            assert part == list(answer_lists[name][:k])

    @given(lists_st)
    def test_contribution_bound(self, answer_lists):
        pool, k, parts = combine_answer_lists(answer_lists)
        if pool:
            largest = max(len(part) for part in parts.values())
            assert largest / len(pool) <= 1.0 / len(answer_lists) + 1e-9

    @given(lists_st)
    def test_pool_only_contains_offered_addresses(self, answer_lists):
        pool, _, _ = combine_answer_lists(answer_lists)
        offered = {a for v in answer_lists.values() for a in v}
        assert all(address in offered for address in pool)

    @given(lists_st)
    def test_median_bounded_by_extremes(self, answer_lists):
        lengths = [len(v) for v in answer_lists.values()]
        median_k = TruncationPolicy.MEDIAN.truncate_length(lengths)
        assert min(lengths) <= median_k <= max(lengths)


class TestCombineWithQuorum:
    """The shared availability gate (strict vs quorum, E6 / fleet)."""

    def test_strict_requires_every_answer(self):
        from repro.core.pool import combine_with_quorum
        answers = {"r1": addresses(1, 2), "r2": addresses(3, 4), "r3": None}
        assert combine_with_quorum(answers) is None

    def test_strict_empty_answer_is_the_dos(self):
        from repro.core.pool import combine_with_quorum
        answers = {"r1": addresses(1, 2), "r2": [], "r3": addresses(3, 4)}
        assert combine_with_quorum(answers) is None

    def test_quorum_discards_empty_and_failed(self):
        from repro.core.pool import combine_with_quorum
        answers = {"r1": addresses(1, 2), "r2": [], "r3": None}
        pool = combine_with_quorum(answers, min_answers=1)
        assert pool == addresses(1, 2)
        assert combine_with_quorum(answers, min_answers=2) is None

    def test_all_answered_matches_plain_combine(self):
        from repro.core.pool import combine_with_quorum
        answers = {"r1": addresses(1, 2, 3), "r2": addresses(4, 5),
                   "r3": addresses(6, 7)}
        pool, _, _ = combine_answer_lists(answers)
        assert combine_with_quorum(answers) == pool
