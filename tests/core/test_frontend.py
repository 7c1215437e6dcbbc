"""Tests for the backward-compatible plain-DNS front-end."""

import pytest

from repro.core.frontend import MajorityDnsFrontend
from repro.dns.client import StubResolver
from repro.dns.rcode import RCode
from repro.dns.rrtype import RRType
from repro.scenarios import materialize, pool_spec


@pytest.fixture
def frontend_world():
    scenario = materialize(pool_spec(num_providers=3, pool_size=20), 41)
    generator = scenario.make_generator()
    frontend = MajorityDnsFrontend(
        scenario.client, generator, scenario.make_doh_client("frontend"),
        pool_domains=[scenario.pool_domain])
    # A second simulated machine uses the frontend like a normal
    # resolver over plain DNS.
    from repro.netsim.address import ip
    from repro.netsim.host import Host
    app_host = scenario.internet.add_host(
        Host("legacy-app", "client-edge", [ip("10.99.0.2")]))
    stub = StubResolver(app_host, scenario.simulator,
                        scenario.client.primary_address, timeout=10.0)
    return scenario, frontend, stub


def stub_query_sync(scenario, stub, qname, qtype=RRType.A):
    outcomes = []
    stub.query(qname, qtype, outcomes.append)
    scenario.simulator.run()
    assert len(outcomes) == 1
    return outcomes[0]


class TestPoolDomainPath:
    def test_legacy_stub_gets_combined_pool(self, frontend_world):
        scenario, frontend, stub = frontend_world
        outcome = stub_query_sync(scenario, stub, "pool.ntp.org")
        assert outcome.ok
        # N=3 resolvers x K=4 answers each.
        assert len(outcome.addresses) == 12
        assert frontend.pool_queries == 1
        for address in outcome.addresses:
            assert scenario.directory.is_benign(address)

    def test_multiset_preserved_over_plain_dns(self, frontend_world):
        """Duplicate addresses survive the standard DNS encoding (§IV)."""
        scenario, frontend, stub = frontend_world
        outcome = stub_query_sync(scenario, stub, "pool.ntp.org")
        # With a 20-server pool and 12 slots, duplicates are likely but
        # not guaranteed for every seed; the invariant that matters is
        # that the answer length equals N*K even when addresses repeat.
        assert len(outcome.addresses) == 12

    def test_majority_filter_mode(self):
        scenario = materialize(pool_spec(num_providers=3, pool_size=4,
                                         answers_per_query=4), 42)
        # Tiny pool + full-size answers => every resolver sees the same 4
        # servers, so majority voting keeps them.
        generator = scenario.make_generator()
        frontend = MajorityDnsFrontend(
            scenario.client, generator, scenario.make_doh_client("fe"),
            pool_domains=[scenario.pool_domain],
            majority=True)
        from repro.netsim.address import ip
        from repro.netsim.host import Host
        app_host = scenario.internet.add_host(
            Host("legacy-app", "client-edge", [ip("10.99.0.2")]))
        stub = StubResolver(app_host, scenario.simulator,
                            scenario.client.primary_address, timeout=10.0)
        outcome = stub_query_sync(scenario, stub, "pool.ntp.org")
        assert outcome.ok
        assert 1 <= len(outcome.addresses) <= 4
        assert len(set(outcome.addresses)) == len(outcome.addresses)


class TestProxyPath:
    def test_non_pool_query_proxied(self, frontend_world):
        scenario, frontend, stub = frontend_world
        outcome = stub_query_sync(scenario, stub, "c.ntpns.org")
        assert outcome.ok
        assert frontend.proxied_queries == 1
        assert [str(a) for a in outcome.addresses] == ["10.0.0.11"]

    def test_nxdomain_proxied(self, frontend_world):
        scenario, frontend, stub = frontend_world
        outcome = stub_query_sync(scenario, stub, "missing.ntp.org")
        assert outcome.response.rcode is RCode.NXDOMAIN

    def test_pool_domain_txt_is_proxied_not_pooled(self, frontend_world):
        scenario, frontend, stub = frontend_world
        outcome = stub_query_sync(scenario, stub, "pool.ntp.org", RRType.TXT)
        assert frontend.pool_queries == 0
        assert frontend.proxied_queries == 1
