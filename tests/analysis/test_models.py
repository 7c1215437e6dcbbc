"""Tests for the §III analysis: closed forms, MC agreement, advantage."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.advantage import (
    equivalent_keyspace_bits,
    marginal_bits_per_resolver,
    security_bits,
)
from repro.analysis.model import (
    attack_probability_exact,
    attack_probability_paper,
    required_corrupted_resolvers,
    resolvers_for_target_security,
)
from repro.analysis.montecarlo import (
    simulate_attack_probability,
    simulate_pool_fraction,
)
from repro.analysis.poolquality import (
    pool_fraction_with_truncation,
    pool_fraction_without_truncation,
)
from repro.core.policy import TruncationPolicy


class TestRequiredResolvers:
    def test_paper_example_three_resolvers_majority(self):
        """§III-b: 'Even when only 3 DoH resolvers are used ... a
        malicious majority (x ≥ 2/3) is reduced significantly (p²).'"""
        assert required_corrupted_resolvers(3, 2 / 3) == 2

    def test_half_fraction(self):
        assert required_corrupted_resolvers(4, 0.5) == 2
        assert required_corrupted_resolvers(5, 0.5) == 3

    def test_full_fraction(self):
        assert required_corrupted_resolvers(7, 1.0) == 7

    def test_majority_of_three(self):
        """§III-a: controlling fraction y of the pool needs ⌈yN⌉
        resolvers — a majority of a 3-resolver pool needs 2."""
        assert required_corrupted_resolvers(3, 1 / 2) == 2

    def test_scales_with_n(self):
        assert [required_corrupted_resolvers(n, 0.5)
                for n in (3, 5, 9, 15)] == [2, 3, 5, 8]

    @pytest.mark.parametrize("n, x, tolerable", [
        (4, 0.5, 2), (5, 0.5, 2), (3, 2 / 3, 1)])
    def test_tolerable_corrupted_is_the_complement(self, n, x, tolerable):
        """With fraction x assumed secure, ⌊(1-x)·N⌋ resolvers may be
        corrupted: N minus the ⌈xN⌉ an attacker would need."""
        assert n - required_corrupted_resolvers(n, x) == tolerable
        assert tolerable == math.floor((1 - x) * n + 1e-9)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            required_corrupted_resolvers(0, 0.5)

    @given(st.integers(min_value=1, max_value=100),
           st.floats(min_value=0.01, max_value=1.0))
    def test_never_exceeds_n(self, n, y):
        assert 1 <= required_corrupted_resolvers(n, y) <= n

    @given(st.integers(min_value=1, max_value=100),
           st.floats(min_value=0.01, max_value=0.99))
    def test_corrupting_that_many_reaches_fraction(self, n, y):
        """§III-a soundness: ⌈yN⌉ resolvers do yield fraction ≥ y."""
        m = required_corrupted_resolvers(n, y)
        assert m / n >= y - 1e-9


class TestAttackProbability:
    def test_paper_example_p_squared(self):
        assert attack_probability_paper(3, 2 / 3, 0.1) == pytest.approx(0.01)

    def test_decreases_exponentially_in_n(self):
        probabilities = [attack_probability_paper(n, 0.5, 0.3)
                         for n in (3, 5, 9, 17, 33)]
        for earlier, later in zip(probabilities, probabilities[1:]):
            assert later < earlier

    def test_exact_at_least_paper_term(self):
        """P[≥M of N] is at least the single-set term p^M."""
        for n in (3, 5, 10):
            for p in (0.05, 0.2, 0.5):
                assert (attack_probability_exact(n, 0.5, p)
                        >= attack_probability_paper(n, 0.5, p) - 1e-12)

    def test_exact_equals_paper_when_all_needed(self):
        """x=1: all N must fall; both models give p^N."""
        for n in (2, 4, 6):
            assert attack_probability_exact(n, 1.0, 0.3) == pytest.approx(
                attack_probability_paper(n, 1.0, 0.3))

    def test_edges(self):
        assert attack_probability_paper(5, 0.5, 0.0) == 0.0
        assert attack_probability_paper(5, 0.5, 1.0) == 1.0
        assert attack_probability_exact(5, 0.5, 1.0) == pytest.approx(1.0)

    def test_exact_tail_is_correctly_rounded(self):
        assert attack_probability_exact(5, 0.5, 0.0) == 0.0
        assert attack_probability_exact(5, 0.5, 1.0) == 1.0
        # m == n: the tail is the single term p^n, rounded once.
        assert attack_probability_exact(5, 1.0, 0.5) == 0.03125
        assert attack_probability_exact(7, 1.0, 0.3) == float(
            Fraction(0.3) ** 7)
        # P[Bin(3, 0.3) >= 2]: a binomial survival function built from
        # floats returns 0.21599999999999994 here.
        assert attack_probability_exact(3, 0.5, 0.3) == 0.216

    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_probability_range(self, n, x, p):
        for fn in (attack_probability_paper, attack_probability_exact):
            value = fn(n, x, p)
            assert 0.0 <= value <= 1.0


class TestResolversForTarget:
    def test_reaches_target(self):
        n = resolvers_for_target_security(0.5, 0.2, 1e-6)
        assert attack_probability_paper(n, 0.5, 0.2) <= 1e-6
        if n > 1:
            assert attack_probability_paper(n - 1, 0.5, 0.2) > 1e-6

    def test_p_one_hopeless(self):
        with pytest.raises(ValueError):
            resolvers_for_target_security(0.5, 1.0, 0.01)

    def test_p_zero_trivial(self):
        assert resolvers_for_target_security(0.5, 0.0, 0.01) == 1


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("n,x,p", [
        (3, 2 / 3, 0.1),
        (3, 2 / 3, 0.3),
        (5, 0.5, 0.2),
        (9, 0.5, 0.4),
        (15, 1 / 3, 0.25),
    ])
    def test_mc_matches_exact_binomial(self, n, x, p):
        result = simulate_attack_probability(n, x, p, trials=20_000, seed=5)
        expected = attack_probability_exact(n, x, p)
        assert result.within(expected), (
            f"MC {result.estimate:.4f} ± {result.standard_error:.4f} "
            f"vs exact {expected:.4f}")

    def test_mc_zero_probability(self):
        result = simulate_attack_probability(5, 0.5, 0.0, trials=1000)
        assert result.estimate == 0.0

    def test_mc_certain(self):
        result = simulate_attack_probability(5, 0.5, 1.0, trials=1000)
        assert result.estimate == 1.0

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            simulate_attack_probability(3, 0.5, 0.1, trials=0)


class TestPoolQuality:
    def test_truncation_share_is_k_over_n(self):
        assert pool_fraction_with_truncation(3, 1, 4, 20) == pytest.approx(1 / 3)
        assert pool_fraction_with_truncation(5, 2, 4, 100) == pytest.approx(2 / 5)

    def test_truncation_independent_of_inflation(self):
        for inflate in (4, 8, 100):
            assert pool_fraction_with_truncation(3, 1, 4, inflate) == (
                pytest.approx(1 / 3))

    def test_no_truncation_rewards_inflation(self):
        small = pool_fraction_without_truncation(3, 1, 4, 4)
        large = pool_fraction_without_truncation(3, 1, 4, 100)
        assert large > small
        assert large > 0.9

    def test_empty_answer_zero_share(self):
        assert pool_fraction_with_truncation(3, 1, 4, 0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pool_fraction_with_truncation(0, 0, 4, 4)
        with pytest.raises(ValueError):
            pool_fraction_with_truncation(3, 4, 4, 4)

    def test_mc_pool_fraction_matches_closed_form(self):
        mc = simulate_pool_fraction(3, 1, 4, 20,
                                    TruncationPolicy.SHORTEST, trials=100)
        assert mc.estimate == pytest.approx(1 / 3)
        mc_none = simulate_pool_fraction(3, 1, 4, 20,
                                         TruncationPolicy.NONE, trials=100)
        assert mc_none.estimate == pytest.approx(
            pool_fraction_without_truncation(3, 1, 4, 20))


class TestAdvantage:
    def test_bits_paper_example(self):
        # p=0.5, 3 resolvers, need 2: probability 1/4 => 2 bits.
        assert security_bits(3, 2 / 3, 0.5) == pytest.approx(2.0)

    def test_bits_linear_in_n(self):
        bits = [security_bits(n, 0.5, 0.25) for n in (4, 8, 16, 32)]
        slopes = [(b2 - b1) / (n2 - n1)
                  for (b1, n1), (b2, n2) in zip(
                      zip(bits, (4, 8, 16, 32)),
                      zip(bits[1:], (8, 16, 32)))]
        expected = marginal_bits_per_resolver(0.5, 0.25)
        for slope in slopes:
            assert slope == pytest.approx(expected, rel=0.2)

    def test_marginal_bits(self):
        assert marginal_bits_per_resolver(0.5, 0.5) == pytest.approx(0.5)
        assert marginal_bits_per_resolver(1.0, 0.25) == pytest.approx(2.0)

    def test_zero_probability_infinite_bits(self):
        assert security_bits(3, 0.5, 0.0) == math.inf
        assert marginal_bits_per_resolver(0.5, 0.0) == math.inf

    def test_equivalent_keyspace_alias(self):
        assert equivalent_keyspace_bits(5, 0.5, 0.3) == security_bits(
            5, 0.5, 0.3)
