"""Tests for per-address majority voting."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.majority import majority_vote
from repro.netsim.address import IPAddress


def a(octet):
    return IPAddress(f"10.0.0.{octet}")


class TestMajorityVote:
    def test_unanimous_address_wins(self):
        result = majority_vote({
            "r1": [a(1), a(2)],
            "r2": [a(1), a(3)],
            "r3": [a(1), a(4)],
        })
        assert result == [a(1)]

    def test_majority_suffices(self):
        result = majority_vote({
            "r1": [a(1)],
            "r2": [a(1)],
            "r3": [a(9)],
        })
        assert result == [a(1)]

    def test_minority_excluded(self):
        result = majority_vote({
            "r1": [a(1), a(6)],
            "r2": [a(1)],
            "r3": [a(1)],
        })
        assert a(6) not in result

    def test_repeats_within_one_resolver_count_once(self):
        """One resolver repeating an address is one vote, not many."""
        result = majority_vote({
            "r1": [a(6), a(6), a(6)],
            "r2": [a(1)],
            "r3": [a(1)],
        })
        assert result == [a(1)]

    def test_silent_resolver_votes_against(self):
        result = majority_vote({
            "r1": [a(1)],
            "r2": [a(1)],
            "r3": [],
            "r4": [],
            "r5": [],
        })
        assert result == []

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            majority_vote({})

    def test_default_majority_rule(self):
        # An address needs N // 2 + 1 of the N consulted resolvers.
        for n, quorum in ((3, 2), (4, 3), (5, 3)):
            def lists(votes):
                return {f"r{i}": [a(1)] if i < votes else [a(2)]
                        for i in range(n)}
            assert majority_vote(lists(quorum)) == [a(1)]
            assert a(1) not in majority_vote(lists(quorum - 1))

    def test_deterministic_ordering(self):
        result = majority_vote({
            "r1": [a(5), a(3), a(1)],
            "r2": [a(3), a(1), a(5)],
        })
        assert result == sorted(result, key=lambda addr: str(addr))


class TestMajorityVoteCombiner:
    def test_combine(self):
        # Combining three resolvers' lists keeps what two of them agree on.
        result = majority_vote({
            "r1": [a(1)],
            "r2": [a(1)],
            "r3": [a(2)],
        })
        assert result == [a(1)]


class TestMajorityProperties:
    address_st = st.integers(min_value=0, max_value=30).map(a)
    lists_st = st.dictionaries(
        keys=st.sampled_from(["r1", "r2", "r3", "r4", "r5"]),
        values=st.lists(address_st, max_size=6),
        min_size=1, max_size=5)

    @given(lists_st)
    def test_soundness_every_winner_has_quorum(self, answer_lists):
        n = len(answer_lists)
        quorum = n // 2 + 1
        winners = majority_vote(answer_lists)
        for address in winners:
            votes = sum(1 for lst in answer_lists.values() if address in lst)
            assert votes >= quorum

    @given(lists_st)
    def test_completeness_every_quorum_address_wins(self, answer_lists):
        n = len(answer_lists)
        quorum = n // 2 + 1
        winners = set(majority_vote(answer_lists))
        every_address = {addr for lst in answer_lists.values() for addr in lst}
        for address in every_address:
            votes = sum(1 for lst in answer_lists.values() if address in lst)
            if votes >= quorum:
                assert address in winners

    @given(lists_st)
    def test_no_duplicates_in_output(self, answer_lists):
        winners = majority_vote(answer_lists)
        assert len(winners) == len(set(winners))
