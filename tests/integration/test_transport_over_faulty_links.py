"""End-to-end: protocol clients riding the transport over faulty links.

The satellite claim verified here: a stub DNS client behind a lossy
client access link recovers through the transport's retry schedule, and
the retry accounting (outcome attempts == stub queries sent) is exact
and deterministic for a fixed seed.
"""

from repro.dns.client import StubResolver
from repro.dns.rrtype import RRType
from repro.scenarios import materialize, pool_spec


def _run_stub_query(seed: int, loss_rate: float, retries: int = 8,
                    timeout: float = 2.0):
    scenario = materialize(pool_spec(num_providers=1, loss_rate=loss_rate),
                           seed)
    stub = StubResolver(scenario.client, scenario.simulator,
                        scenario.providers[0].address,
                        timeout=timeout, retries=retries,
                        rng=scenario.rng.stream("stub"))
    outcomes = []
    stub.query(scenario.pool_domain, RRType.A, outcomes.append)
    scenario.simulator.run()
    assert len(outcomes) == 1
    return stub, outcomes[0]


class TestDnsOverLossyLink:
    def test_clean_link_needs_one_attempt(self):
        stub, outcome = _run_stub_query(seed=21, loss_rate=0.0)
        assert outcome.ok
        assert outcome.attempts == 1
        assert stub.stats.queries == 1
        assert stub.stats.timeouts == 0

    def test_lossy_link_retries_until_success(self):
        stub, outcome = _run_stub_query(seed=20, loss_rate=0.6)
        assert outcome.ok
        # The transport retried: more than one query hit the wire, and
        # the outcome's attempt count is exactly the queries sent.
        assert outcome.attempts > 1
        assert stub.stats.queries == outcome.attempts
        assert stub.stats.responses == 1

    def test_retry_counts_are_deterministic(self):
        _, first = _run_stub_query(seed=20, loss_rate=0.6)
        _, again = _run_stub_query(seed=20, loss_rate=0.6)
        assert first.attempts == again.attempts

    def test_total_loss_exhausts_the_budget(self):
        stub, outcome = _run_stub_query(seed=21, loss_rate=1.0, retries=2)
        assert outcome.timed_out
        assert outcome.attempts == 3
        assert stub.stats.queries == 3
        assert stub.stats.timeouts == 1


class TestPoolGenerationOverFaultyAccessLink:
    def test_duplicating_link_does_not_double_deliver_outcomes(self):
        """Link-level duplication must be invisible above the transport:
        one pool generation, one callback, one coherent pool."""
        scenario = materialize(pool_spec(num_providers=3, duplicate_rate=1.0),
                               5)
        pool = scenario.generate_pool_sync()
        assert pool.ok
        assert scenario.internet.datagrams_duplicated > 0

    def test_jitter_and_reordering_keep_generation_correct(self):
        scenario = materialize(pool_spec(num_providers=3, jitter_s=0.02,
                                         reorder_window=0.04), 6)
        pool = scenario.generate_pool_sync()
        assert pool.ok
        assert len(pool.addresses) == 12
