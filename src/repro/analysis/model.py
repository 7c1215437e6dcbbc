"""Closed-form security model (paper §III).

Two quantities:

* **§III-a** — with N resolvers each contributing exactly K of the N·K
  pool addresses, an attacker who wants a fraction ``y`` of the pool
  must corrupt at least ``⌈yN⌉`` resolvers ("x ≥ y").

* **§III-b** — if each resolver falls to the attacker independently
  with probability ``p_attack``, the probability of a successful attack
  against fraction ``x`` is, per the paper, ``p_attack^M`` with
  ``M = ⌈xN⌉``. That expression is the probability that M *specific*
  resolvers all fall; the exact probability that *at least* M of N fall
  is the binomial tail, which the Monte-Carlo experiments validate and
  for which the paper's term is the dominant factor at small p
  (tail ≈ C(N, M)·p^M).
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.util.validation import check_fraction, check_probability


def required_corrupted_resolvers(n: int, target_fraction: float) -> int:
    """§III-a: resolvers to corrupt for a pool fraction ``y``.

    >>> required_corrupted_resolvers(3, 2/3)
    2
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_fraction(target_fraction, "target_fraction")
    # ceil with tolerance: y*n that is an exact integer needs exactly
    # that many resolvers (yK <= xK with x = y).
    return math.ceil(target_fraction * n - 1e-9)


def attack_probability_paper(n: int, x: float, p_attack: float) -> float:
    """§III-b, the paper's expression: ``p_attack^⌈xN⌉``.

    >>> attack_probability_paper(3, 2/3, 0.1)
    0.010000000000000002
    """
    check_probability(p_attack, "p_attack")
    m = required_corrupted_resolvers(n, x)
    return p_attack ** m


def attack_probability_exact(n: int, x: float, p_attack: float) -> float:
    """Exact independent-compromise model: P[Binomial(N, p) ≥ ⌈xN⌉].

    This is what a Monte-Carlo over independent per-resolver compromise
    converges to; the paper's ``p^M`` is its leading term divided by
    the ``C(N, M)`` choice factor.
    """
    check_probability(p_attack, "p_attack")
    m = required_corrupted_resolvers(n, x)
    if m <= 0:
        return 1.0
    # P[X >= m], summed exactly over Fractions: float() of the exact
    # tail is its correctly rounded value.
    p = Fraction(p_attack)
    return float(sum(math.comb(n, k) * p**k * (1 - p)**(n - k)
                     for k in range(m, n + 1)))


def resolvers_for_target_security(x: float, p_attack: float,
                                  target_probability: float) -> int:
    """Smallest N with paper-model attack probability ≤ target.

    Demonstrates the paper's "increase N like a key size" knob.
    """
    check_probability(p_attack, "p_attack")
    if not 0.0 < target_probability < 1.0:
        raise ValueError("target_probability must be in (0, 1)")
    if p_attack == 0.0:
        return 1
    if p_attack == 1.0:
        raise ValueError("no N helps when every resolver falls (p=1)")
    for n in range(1, 10_000):
        if attack_probability_paper(n, x, p_attack) <= target_probability:
            return n
    raise ValueError("target unreachable below N=10000")
