"""The single-client generator and the population combiner apply one
availability gate (:func:`repro.core.pool.quorum_gate`).

For any per-resolver answers (failed, empty or addresses) and any
``min_answers`` in {None, 1..N}, :class:`SecurePoolGenerator`'s combine
must agree with :func:`combine_with_quorum`: the same success, the same
pool, and ``failed_resolvers`` naming exactly the unusable resolvers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pool import (
    PoolGeneratorConfig,
    ResolverAnswer,
    SecurePoolGenerator,
    combine_with_quorum,
)
from repro.core.resolverset import ResolverRef, ResolverSet
from repro.dns.message import make_query, make_response
from repro.dns.rrtype import RRType
from repro.doh.client import DoHQueryOutcome, DoHStatus
from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.simulator import Simulator

POOL = [IPAddress(f"192.0.2.{i}") for i in range(1, 9)]

#: One resolver's answer: ``None`` (failed), ``[]`` (empty) or addresses.
answer_values = st.one_of(st.none(), st.just([]),
                          st.lists(st.sampled_from(POOL), min_size=1,
                                   max_size=4))


@st.composite
def gate_cases(draw):
    answers = draw(st.lists(answer_values, min_size=1, max_size=5))
    min_answers = draw(st.none() | st.integers(1, len(answers)))
    return answers, min_answers


def _resolver_answer(index, addresses):
    ref = ResolverRef(f"r{index}", Endpoint(IPAddress(f"10.53.0.{index + 1}"),
                                            443))
    if addresses is None:
        outcome = DoHQueryOutcome(status=DoHStatus.TIMEOUT)
        addresses = []
    else:
        outcome = DoHQueryOutcome(status=DoHStatus.OK, message=make_response(
            make_query(1, "pool.ntp.org", RRType.A)))
    return ResolverAnswer(resolver=ref, outcome=outcome,
                          addresses=list(addresses))


def generator_combine(values, min_answers):
    answers = [_resolver_answer(i, v) for i, v in enumerate(values)]
    generator = SecurePoolGenerator(
        None, ResolverSet([a.resolver for a in answers]), Simulator(),
        PoolGeneratorConfig(min_answers=min_answers))
    return generator._combine(answers, started_at=0.0)


@settings(max_examples=300, deadline=None)
@given(gate_cases())
def test_generator_agrees_with_combine_with_quorum(case):
    values, min_answers = case
    generated = generator_combine(values, min_answers)
    expected = combine_with_quorum(
        {f"r{i}": v for i, v in enumerate(values)}, min_answers)
    assert generated.ok == (expected is not None)
    if expected is not None:
        assert generated.addresses == expected
    unusable = [f"r{i}" for i, v in enumerate(values)
                if v is None or (min_answers is not None and not v)]
    assert generated.failed_resolvers == unusable


def test_quorum_drops_an_empty_answer():
    # Quorum mode counts an empty answer as a failure instead of letting
    # it truncate the pool to nothing (the paper's strict-mode DoS).
    values = [POOL[:2], [], POOL[2:4]]
    quorum = generator_combine(values, min_answers=2)
    assert quorum.ok and quorum.degraded
    assert quorum.addresses == POOL[:4]
    assert quorum.failed_resolvers == ["r1"]
    strict = generator_combine(values, min_answers=None)
    assert not strict.ok and strict.failed_resolvers == []
