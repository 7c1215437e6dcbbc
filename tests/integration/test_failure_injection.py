"""Failure-injection integration tests across the whole stack.

Loss, partitions, dead servers and SERVFAILs, exercised through the
assembled Figure 1 world — robustness behaviour a downstream user
depends on.
"""

import pytest

from repro.dns.rcode import RCode
from repro.dns.rrtype import RRType
from repro.doh.client import DoHStatus
from repro.netsim.internet import TapAction
from repro.netsim.link import LinkProfile
from repro.scenarios import materialize, pool_spec
from repro.scenarios.spec import ResolverSpec


class TestDoHTransportRetries:
    def test_retry_recovers_from_single_loss(self):
        """Drop exactly the first ClientHello; the retry must succeed."""
        scenario = materialize(pool_spec(), 150)
        dropped = {"count": 0}

        def drop_first_hello(link, datagram):
            if (datagram.dst.port == 443 and datagram.payload
                    and datagram.payload[0] == 1 and dropped["count"] == 0):
                dropped["count"] += 1
                return TapAction.drop()
            return TapAction.passthrough()

        scenario.internet.add_tap("client-edge--eu-central",
                                  drop_first_hello)
        client = scenario.make_doh_client(timeout=1.0, retries=2)
        provider = scenario.providers[0]
        outcomes = []
        client.query(provider.endpoint, provider.name,
                     scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        assert dropped["count"] == 1
        assert outcomes[0].ok
        assert outcomes[0].latency > 1.0  # paid one timeout

    def test_zero_retries_fails_on_loss(self):
        scenario = materialize(pool_spec(), 151)
        scenario.internet.add_tap(
            "client-edge--eu-central",
            lambda link, d: (TapAction.drop()
                             if d.dst.port == 443 and d.payload[0] == 1
                             else TapAction.passthrough()))
        client = scenario.make_doh_client(timeout=0.5, retries=0)
        provider = scenario.providers[0]
        outcomes = []
        client.query(provider.endpoint, provider.name,
                     scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        assert outcomes[0].status is DoHStatus.TIMEOUT

    def test_retries_validation(self):
        scenario = materialize(pool_spec(), 152)
        with pytest.raises(ValueError):
            scenario.make_doh_client(retries=-1)


def isolated_provider_scenario(seed):
    """Figure 1 providers but with one in asia-east, a region hosting no
    shared DNS infrastructure — so partitioning it hurts only that
    provider."""
    from repro.doh.providers import CLOUDFLARE, QUAD9, DoHProviderProfile
    lonely = DoHProviderProfile("doh.asia.example", "asia-east", "10.53.0.9")
    return materialize(pool_spec(num_providers=3,
                                 profiles=[lonely, CLOUDFLARE, QUAD9]), seed)


def sever_region(topology, region):
    removed = []
    for other in list(topology.nodes):
        if topology.link_between(region, other) is not None:
            profile = topology.link_between(region, other).profile
            topology.remove_link(region, other)
            removed.append((other, profile))
    return removed


class TestPartitions:
    def test_partitioned_region_fails_only_its_provider(self):
        scenario = isolated_provider_scenario(seed=153)
        sever_region(scenario.internet.topology, "asia-east")
        generator = scenario.make_generator(timeout=5.0, retries=0)
        pool = scenario.generate_pool_sync(generator)
        assert not pool.ok  # strict semantics: all must answer
        assert pool.failed_resolvers == ["doh.asia.example"]
        ok_names = {a.resolver.name for a in pool.answers if a.ok}
        assert ok_names == {"cloudflare-dns.com", "dns.quad9.net"}

    def test_healed_partition_recovers(self):
        scenario = isolated_provider_scenario(seed=154)
        topology = scenario.internet.topology
        removed = sever_region(topology, "asia-east")
        generator = scenario.make_generator(timeout=5.0, retries=0)
        first = scenario.generate_pool_sync(generator)
        assert not first.ok
        for other, profile in removed:
            topology.add_link("asia-east", other, profile)
        second = scenario.generate_pool_sync(generator)
        assert second.ok


class TestUpstreamDnsFailures:
    def test_dead_pool_nameservers_yield_servfail_everywhere(self):
        scenario = materialize(pool_spec(resolver_config=ResolverSpec(
            query_timeout=0.3, max_retries_per_server=0)), 155)
        topology = scenario.internet.topology
        # ntpns-edge hosts all three pool nameservers.
        for other in list(topology.nodes):
            if topology.link_between("ntpns-edge", other) is not None:
                topology.remove_link("ntpns-edge", other)
        client = scenario.make_doh_client(timeout=20.0, retries=0)
        provider = scenario.providers[0]
        outcomes = []
        client.query(provider.endpoint, provider.name,
                     scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        assert outcomes[0].ok  # HTTP-level fine
        assert outcomes[0].message.rcode is RCode.SERVFAIL

    def test_loss_on_provider_recursion_path_retries(self):
        """Loss between a provider and the DNS tree is absorbed by the
        resolver's own retry logic."""
        scenario = materialize(pool_spec(resolver_config=ResolverSpec(
            query_timeout=0.3, max_retries_per_server=10)), 156)
        topology = scenario.internet.topology
        # Degrade the nameserver access link.
        topology.remove_link("ntpns-edge", "us-west")
        topology.add_link("ntpns-edge", "us-west",
                          LinkProfile.lossy(0.25, latency=0.005))
        generator = scenario.make_generator(timeout=20.0, retries=2)
        pool = scenario.generate_pool_sync(generator)
        assert pool.ok
        stats = scenario.providers[0].resolver.stats
        assert stats.timeouts >= 0  # retries may or may not have fired


class TestCacheResilience:
    def test_cached_answers_survive_infrastructure_outage(self):
        """Once resolvers have cached the pool, the DNS tree can die and
        lookups still succeed until TTL expiry."""
        scenario = materialize(pool_spec(pool_ttl=300), 157)
        first = scenario.generate_pool_sync()
        assert first.ok
        topology = scenario.internet.topology
        for edge in ("ntpns-edge", "dns-root-edge", "dns-org-edge"):
            for other in list(topology.nodes):
                if topology.link_between(edge, other) is not None:
                    topology.remove_link(edge, other)
        second = scenario.generate_pool_sync()
        assert second.ok
        # Served from the providers' caches: identical answers.
        assert [str(a) for a in second.addresses] == [
            str(a) for a in first.addresses]

    def test_cache_expiry_after_outage_fails(self):
        scenario = materialize(pool_spec(pool_ttl=60), 158)
        scenario.generate_pool_sync()
        topology = scenario.internet.topology
        for edge in ("ntpns-edge", "dns-root-edge", "dns-org-edge"):
            for other in list(topology.nodes):
                if topology.link_between(edge, other) is not None:
                    topology.remove_link(edge, other)
        scenario.simulator.run(until=scenario.simulator.now + 120)
        generator = scenario.make_generator(timeout=1.0, retries=0)
        pool = scenario.generate_pool_sync(generator)
        assert not pool.ok
