"""Truncation and dual-stack policies (§II of the paper).

The paper prescribes SHORTEST truncation: every resolver's answer list
is cut to the length of the shortest list, so no single resolver can
contribute more than 1/N of the final pool. Footnote 2 explains the
trade-off: this blocks the over-population attack from [1] at the cost
of allowing a DoS when a corrupted resolver answers with an empty list.
The alternatives (NONE, MEDIAN) exist for the E5 ablation.

Footnote 1 concerns dual-stack lookups: the honest-majority property can
be required on the *union* of A and AAAA pools or on each family
*individually*; which is right depends on the application, so both are
implemented.
"""

from __future__ import annotations

import enum
from typing import Sequence


class TruncationPolicy(enum.Enum):
    """How per-resolver answer lists are cut before combination."""

    SHORTEST = "shortest"   # the paper's Algorithm 1
    MEDIAN = "median"       # ablation: cut to the median list length
    NONE = "none"           # ablation: no cut (vulnerable to [1])

    def truncate_length(self, lengths: Sequence[int]) -> int:
        """The per-resolver contribution bound for the given lengths."""
        if not lengths:
            raise ValueError("no answer lists to truncate")
        if self is TruncationPolicy.SHORTEST:
            return min(lengths)
        if self is TruncationPolicy.MEDIAN:
            ordered = sorted(lengths)
            return ordered[(len(ordered) - 1) // 2]
        return max(lengths)


class DualStackPolicy(enum.Enum):
    """Where the honest-majority property must hold for dual-stack
    lookups (§II footnote 1)."""

    # Combine A and AAAA answers into one list per resolver, then run
    # Algorithm 1 once: the guarantee holds on the union.
    UNION = "union"
    # Run Algorithm 1 per address family and concatenate the resulting
    # pools: the guarantee holds for each family individually.
    PER_FAMILY = "per-family"
