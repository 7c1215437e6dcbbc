"""Algorithm 1: secure server-pool generation (the paper's core).

The lookup queries the pool domain through every configured trusted
DoH resolver (a :class:`ResolverRef` each) in parallel, truncates
every answer list to the length of the shortest, and returns the
multiset combination::

    results = [], lengths = [], addresspool = []
    for res in resolvers:
        r = query(res, domain)
        results.append(r); lengths.append(len(r))
    truncatelength = min(lengths)
    for r in results:
        addresspool.add(truncate(r, truncatelength))
    return addresspool

Duplicates are preserved deliberately (§IV: the application must treat
repeated addresses as individual servers, otherwise an attacker
controlling a majority of resolvers could not be out-voted by honest
duplicates).

Before combining, one availability gate decides which answers count
(:func:`quorum_gate`). Strict mode (the paper) needs every resolver to
answer, and one empty answer truncates the pool to nothing. Quorum
mode (§II fn. 2, the E6 extension) drops empty answers like failures
and needs ``min_answers`` of the rest. Both combiners apply that one
statement: :func:`combine_with_quorum` (the population fleet's) and
:class:`SecurePoolGenerator` (the single client's, which also keeps
the per-resolver metadata).

``combine_answer_lists`` is the pure-function heart of the algorithm,
used directly by property tests; :class:`SecurePoolGenerator` is the
network-facing orchestrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.policy import DualStackPolicy, TruncationPolicy
from repro.dns.rrtype import RRType
from repro.doh.client import DoHClient, DoHQueryOutcome
from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.simulator import Simulator
from repro.telemetry.trace import current_tracer


# ----------------------------------------------------------------------
# Pure combination logic.
# ----------------------------------------------------------------------


def combine_answer_lists(
    answer_lists: Dict[str, Sequence[IPAddress]],
    policy: TruncationPolicy = TruncationPolicy.SHORTEST,
) -> Tuple[List[IPAddress], int, Dict[str, List[IPAddress]]]:
    """Apply Algorithm 1's truncate-and-combine step.

    :param answer_lists: per-resolver address lists (resolver name →
        addresses, in answer order).
    :param policy: truncation policy (SHORTEST is the paper's).
    :returns: ``(pool, truncate_length, per_resolver_contributions)``.
        The pool is a multiset: duplicates across resolvers are kept.
    :raises ConfigurationError: on empty input.
    """
    if not answer_lists:
        raise ConfigurationError("no answer lists to combine")
    truncate_length = policy.truncate_length(
        [len(addresses) for addresses in answer_lists.values()])
    contributions = {
        name: list(addresses[:truncate_length])
        for name, addresses in answer_lists.items()
    }
    pool: List[IPAddress] = []
    for name in answer_lists:  # preserve resolver order
        pool.extend(contributions[name])
    return pool, truncate_length, contributions


def quorum_gate(
    answer_lists: Mapping[str, Optional[Sequence[IPAddress]]],
    min_answers: Optional[int] = None,
) -> Tuple[Dict[str, Sequence[IPAddress]], int]:
    """Algorithm 1's availability gate: which answers count, and how
    many must.

    ``answer_lists`` maps resolver name to its answer, ``None`` for a
    resolver that failed to answer at all. Returns the usable answers
    (in input order) and the number required:

    * strict (``min_answers=None``): every answer is usable and every
      resolver is required. One empty answer then truncates the pool to
      nothing: §II fn. 2's documented DoS.
    * quorum: empty answers are dropped like failures and
      ``min_answers`` usable answers are required. The cost: with e of
      N resolvers dropped, a remaining corrupted resolver's share grows
      from 1/N to 1/(N-e).
    """
    usable = {
        name: addresses for name, addresses in answer_lists.items()
        if addresses is not None and (min_answers is None or addresses)
    }
    required = len(answer_lists) if min_answers is None else min_answers
    return usable, required


def combine_with_quorum(
    answer_lists: Dict[str, Optional[Sequence[IPAddress]]],
    min_answers: Optional[int] = None,
    policy: TruncationPolicy = TruncationPolicy.SHORTEST,
) -> Optional[List[IPAddress]]:
    """:func:`quorum_gate` plus truncate-and-combine.

    Returns the combined pool, or ``None`` when fewer answers than
    required are usable or the combination truncates to nothing.
    """
    usable, required = quorum_gate(answer_lists, min_answers)
    if len(usable) < required:
        return None
    pool, truncate_length, _ = combine_answer_lists(usable, policy)
    if truncate_length == 0:
        return None
    return pool


# ----------------------------------------------------------------------
# Network-facing generator.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResolverRef:
    """One trusted DoH resolver: where to reach it and what name its
    certificate must present."""

    name: str
    endpoint: Endpoint

    def __str__(self) -> str:
        return f"{self.name} ({self.endpoint})"


@dataclass(frozen=True)
class PoolGeneratorConfig:
    """Behavioural knobs for :class:`SecurePoolGenerator`.

    :param truncation: list-truncation policy (§II fn. 2).
    :param dual_stack: None for single-family lookups, or a
        :class:`DualStackPolicy` to query both A and AAAA (§II fn. 1).
    :param min_answers: ``None`` for the paper's strict reading (every
        resolver must answer, and an empty or missing answer is a DoS);
        an integer for the E6 quorum extension, where empty answers
        count as failures and ``min_answers`` non-empty ones suffice
        (see :func:`quorum_gate`).
    """

    truncation: TruncationPolicy = TruncationPolicy.SHORTEST
    dual_stack: Optional[DualStackPolicy] = None
    min_answers: Optional[int] = None


@dataclass
class ResolverAnswer:
    """One resolver's contribution to a lookup."""

    resolver: ResolverRef
    outcome: DoHQueryOutcome
    addresses: List[IPAddress] = field(default_factory=list)
    addresses_by_family: Dict[int, List[IPAddress]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.outcome.ok and self.outcome.message is not None


@dataclass
class GeneratedPool:
    """The result of one secure pool generation."""

    addresses: List[IPAddress]
    truncate_length: int
    contributions: Dict[str, List[IPAddress]]
    answers: List[ResolverAnswer]
    failed_resolvers: List[str]
    elapsed: float
    degraded: bool = False   # True when min_answers < N allowed gaps

    @property
    def ok(self) -> bool:
        """Whether a non-empty pool was produced."""
        return bool(self.addresses)

    @property
    def resolver_count(self) -> int:
        return len(self.answers)

    def max_contribution_fraction(self) -> float:
        """Largest share of the pool contributed by any one resolver —
        the quantity Algorithm 1 bounds to 1/(answering resolvers)."""
        if not self.addresses:
            raise ValueError("empty pool has no contributions")
        largest = max(len(part) for part in self.contributions.values())
        return largest / len(self.addresses)


PoolCallback = Callable[[GeneratedPool], None]


class SecurePoolGenerator:
    """Algorithm 1 over live DoH resolvers.

    :param doh_client: transport for the secure per-resolver queries.
    :param resolvers: the paper's "list of trusted DoH resolvers", in
        query order; non-empty, with distinct names.
    :param simulator: virtual clock for elapsed-time accounting.
    :param config: policy knobs.
    """

    def __init__(self, doh_client: DoHClient,
                 resolvers: Sequence[ResolverRef], simulator: Simulator,
                 config: Optional[PoolGeneratorConfig] = None) -> None:
        if not resolvers:
            raise ConfigurationError("resolver list cannot be empty")
        names = [ref.name for ref in resolvers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate resolver names in {names}")
        self._doh = doh_client
        self._resolvers = tuple(resolvers)
        self._simulator = simulator
        self._config = config or PoolGeneratorConfig()
        self._tracer = current_tracer()
        min_answers = self._config.min_answers
        if min_answers is not None and not 1 <= min_answers <= len(names):
            raise ConfigurationError(
                f"min_answers must be in [1, {len(names)}], "
                f"got {min_answers}")

    @property
    def resolvers(self) -> Tuple[ResolverRef, ...]:
        return self._resolvers

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def generate(self, domain: str, callback: PoolCallback) -> None:
        """Run Algorithm 1 for ``domain``; ``callback`` fires once."""
        if self._config.dual_stack is None:
            qtypes = [RRType.A]
        else:
            qtypes = [RRType.A, RRType.AAAA]
        _Generation(self, domain, qtypes, callback).start()

    # ------------------------------------------------------------------
    # Combination step (shared with _Generation).
    # ------------------------------------------------------------------

    def _combine(self, answers: List[ResolverAnswer],
                 started_at: float) -> GeneratedPool:
        # The gate is combine_with_quorum's; this form keeps the
        # per-resolver metadata (contributions, failures, dual stack).
        usable, required = quorum_gate(
            {answer.resolver.name: answer.addresses if answer.ok else None
             for answer in answers},
            self._config.min_answers)
        succeeded = [answer for answer in answers
                     if answer.resolver.name in usable]
        failed = [answer.resolver.name for answer in answers
                  if answer.resolver.name not in usable]
        elapsed = self._simulator.now - started_at
        if len(succeeded) < required:
            generated = GeneratedPool(addresses=[], truncate_length=0,
                                      contributions={}, answers=answers,
                                      failed_resolvers=failed,
                                      elapsed=elapsed)
            self._trace_combine(generated)
            return generated
        degraded = len(succeeded) < len(self._resolvers)

        if self._config.dual_stack is DualStackPolicy.PER_FAMILY:
            pool: List[IPAddress] = []
            contributions: Dict[str, List[IPAddress]] = {
                answer.resolver.name: [] for answer in succeeded}
            lengths = []
            for family in (4, 6):
                family_lists = {
                    answer.resolver.name:
                        answer.addresses_by_family.get(family, [])
                    for answer in succeeded
                }
                family_pool, family_length, family_parts = combine_answer_lists(
                    family_lists, self._config.truncation)
                pool.extend(family_pool)
                lengths.append(family_length)
                for name, part in family_parts.items():
                    contributions[name].extend(part)
            truncate_length = min(lengths) if lengths else 0
        else:
            # Single family, or dual-stack UNION (per-resolver lists
            # already hold the concatenated A+AAAA answers).
            answer_lists = {answer.resolver.name: answer.addresses
                            for answer in succeeded}
            pool, truncate_length, contributions = combine_answer_lists(
                answer_lists, self._config.truncation)

        generated = GeneratedPool(
            addresses=pool, truncate_length=truncate_length,
            contributions=contributions, answers=answers,
            failed_resolvers=failed, elapsed=elapsed, degraded=degraded)
        self._trace_combine(generated)
        return generated

    def _trace_combine(self, generated: GeneratedPool) -> None:
        """One Algorithm-1 combine as an instantaneous span: which
        resolver contributed what, and what survived truncation — the
        record the tracetool causal-chain analysis pivots on."""
        tracer = self._tracer
        if tracer is None:
            return
        tracer.event("pool.combine", attrs={
            "answers": {answer.resolver.name:
                        [str(address) for address in answer.addresses]
                        for answer in generated.answers},
            "contributions": {name: [str(address) for address in part]
                              for name, part in
                              generated.contributions.items()},
            "result": [str(address) for address in generated.addresses],
            "truncate_length": generated.truncate_length,
            "failed": list(generated.failed_resolvers),
        })


class _Generation:
    """One in-flight pool generation: fan out, join, combine."""

    def __init__(self, generator: SecurePoolGenerator, domain: str,
                 qtypes: List[RRType], callback: PoolCallback) -> None:
        self._generator = generator
        self._domain = domain
        self._qtypes = qtypes
        self._callback = callback
        self._started_at = generator._simulator.now
        self._answers: Dict[str, ResolverAnswer] = {}
        self._pending = 0
        self._span = None

    def start(self) -> None:
        resolvers = self._generator._resolvers
        self._pending = len(resolvers) * len(self._qtypes)
        tracer = self._generator._tracer
        if tracer is not None:
            self._span = tracer.begin("pool.generate",
                                      attrs={"domain": self._domain})
            with tracer.scope(self._span):
                self._fan_out(resolvers)
        else:
            self._fan_out(resolvers)

    def _fan_out(self, resolvers) -> None:
        for resolver in resolvers:
            self._answers[resolver.name] = ResolverAnswer(
                resolver=resolver,
                outcome=DoHQueryOutcome(status=None),  # placeholder
            )
            for qtype in self._qtypes:
                self._query_one(resolver, qtype)

    def _query_one(self, resolver: ResolverRef, qtype: RRType) -> None:
        def on_outcome(outcome: DoHQueryOutcome) -> None:
            self._record(resolver, qtype, outcome)

        self._generator._doh.query(resolver.endpoint, resolver.name,
                                   self._domain, qtype, on_outcome)

    def _record(self, resolver: ResolverRef, qtype: RRType,
                outcome: DoHQueryOutcome) -> None:
        answer = self._answers[resolver.name]
        family = 4 if qtype is RRType.A else 6
        if outcome.ok and outcome.message is not None:
            addresses = [
                record.rdata.address  # type: ignore[attr-defined]
                for record in outcome.message.answers
                if record.rrtype is qtype
            ]
            answer.addresses_by_family[family] = addresses
        else:
            answer.addresses_by_family[family] = []
        # Rebuild the flat list in family order so results do not depend
        # on which family's response arrived first.
        answer.addresses = [
            address
            for fam in (4, 6)
            for address in answer.addresses_by_family.get(fam, [])
        ]
        # The per-resolver outcome reflects the *worst* qtype result so
        # a resolver failing either family counts as failed.
        if answer.outcome.status is None or not outcome.ok:
            answer.outcome = outcome
        self._pending -= 1
        if self._pending == 0:
            ordered = [self._answers[ref.name]
                       for ref in self._generator._resolvers]
            tracer = self._generator._tracer
            if tracer is not None and self._span is not None:
                # The join arrives through the last resolver's callback
                # hop; combine under the generation span, then close it.
                with tracer.scope(self._span):
                    generated = self._generator._combine(ordered,
                                                         self._started_at)
                tracer.finish(self._span.set(
                    ok=generated.ok, degraded=generated.degraded,
                    pool_size=len(generated.addresses)))
            else:
                generated = self._generator._combine(ordered,
                                                     self._started_at)
            self._callback(generated)
