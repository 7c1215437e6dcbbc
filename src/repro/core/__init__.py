"""The paper's contribution: secure server-pool generation over
distributed DoH resolvers.

* :mod:`repro.core.pool` — **Algorithm 1**: query the pool domain
  through every trusted DoH resolver (a :class:`ResolverRef` each),
  truncate each answer list to the length of the shortest, and return
  the multiset combination;
* :mod:`repro.core.majority` — the per-address majority vote the paper
  describes for applications that need *every* returned server benign
  (not required for Chronos, which tolerates a minority);
* :mod:`repro.core.policy` — truncation and dual-stack policies
  (§II footnotes 1-2), including the ablation alternatives;
* :mod:`repro.core.frontend` — a standard-compatible plain-DNS front-end
  so unmodified applications (stub resolvers) benefit transparently,
  per the paper's backward-compatibility claim.
"""

from repro.core.errors import PoolGenerationError
from repro.core.majority import majority_vote
from repro.core.policy import DualStackPolicy, TruncationPolicy
from repro.core.pool import (
    GeneratedPool,
    PoolGeneratorConfig,
    ResolverAnswer,
    ResolverRef,
    SecurePoolGenerator,
    combine_answer_lists,
)
from repro.core.frontend import MajorityDnsFrontend

__all__ = [
    "PoolGenerationError",
    "majority_vote",
    "DualStackPolicy",
    "TruncationPolicy",
    "GeneratedPool",
    "PoolGeneratorConfig",
    "ResolverAnswer",
    "SecurePoolGenerator",
    "combine_answer_lists",
    "ResolverRef",
    "MajorityDnsFrontend",
]
