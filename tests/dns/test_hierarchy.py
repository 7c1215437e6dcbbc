"""Tests for the declarative resolution hierarchy (repro.dns.hierarchy)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.dns.hierarchy import (
    HIERARCHY_ROOT_ADDRESS,
    HierarchySpec,
    compile_hierarchy,
    compile_legacy_tree,
)
from repro.dns.name import Name
from repro.dns.resolver import RecursiveResolver, ResolveStatus
from repro.dns.rrtype import RRType
from repro.netsim.address import ip
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.netsim.link import LinkProfile
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.scenarios.spec import PoolSpec
from repro.telemetry.trace import Tracer, use_tracer
from repro.util.rng import RngRegistry


class HierarchyWorld:
    """A compiled hierarchy plus one caching resolver walking it."""

    def __init__(self, spec=None, pool=None, seed=7):
        self.rng = RngRegistry(seed)
        self.simulator = Simulator()
        topology = Topology.global_backbone(rng_registry=self.rng)
        topology.add_link("dns-root-edge", "us-east", LinkProfile.metro())
        topology.add_link("dns-org-edge", "eu-west", LinkProfile.metro())
        topology.add_link("ntpns-edge", "us-west", LinkProfile.metro())
        self.internet = Internet(self.simulator, topology, self.rng)
        self.deployment = compile_hierarchy(
            self.internet, self.rng, pool or PoolSpec(),
            spec or HierarchySpec())
        host = self.internet.add_host(
            Host("res", "us-west", [ip("10.99.0.50")],
                 rng=self.rng.stream("res-ports")))
        self.resolver = RecursiveResolver(
            host, self.simulator, self.deployment.root_hints,
            rng=self.rng.stream("res-txid"), instrument=True)

    def resolve(self, qname, qtype=RRType.A):
        results = []
        self.resolver.resolve(qname, qtype, results.append)
        self.simulator.run()
        assert len(results) == 1
        return results[0]


def addresses(outcome):
    return {str(record.rdata.address) for record in outcome.records}


@pytest.fixture
def world():
    return HierarchyWorld()


class TestHierarchySpec:
    def test_defaults_round_trip(self):
        spec = HierarchySpec()
        assert HierarchySpec.from_dict(spec.to_dict()) == spec

    def test_custom_round_trip(self):
        spec = HierarchySpec(tld="net", zone="pool.net", nsdomain="ns.net",
                             ns_count=3, root_ttl=100, tld_ttl=50,
                             glue=False)
        assert HierarchySpec.from_dict(spec.to_dict()) == spec

    def test_pool_name(self):
        assert HierarchySpec().pool_name == "pool.ntp.org"

    def test_zone_must_live_under_tld(self):
        with pytest.raises(ConfigurationError):
            HierarchySpec(tld="org", zone="ntp.net")

    def test_nsdomain_must_differ_from_zone(self):
        with pytest.raises(ConfigurationError):
            HierarchySpec(zone="ntp.org", nsdomain="ntp.org")

    def test_ns_count_bounds(self):
        with pytest.raises(ConfigurationError):
            HierarchySpec(ns_count=0)

    def test_ttls_positive(self):
        with pytest.raises(ConfigurationError):
            HierarchySpec(root_ttl=0)


class TestCompiledHierarchy:
    def test_resolves_pool_through_referral_chain(self, world):
        outcome = world.resolve("pool.ntp.org")
        assert outcome.ok
        assert len(addresses(outcome)) == 4

    def test_walks_exactly_two_referrals(self, world):
        world.resolve("pool.ntp.org")
        stats = world.resolver.stats
        # root -> TLD -> authoritative: two referrals, three upstream
        # queries.
        assert stats.referrals_followed == 2
        assert stats.upstream_queries == 3

    def test_each_level_served_once(self, world):
        world.resolve("pool.ntp.org")
        servers = world.deployment.servers
        assert servers["root"].queries_served == 1
        tld_hits = sum(s.queries_served for name, s in servers.items()
                       if "-servers.net" in name)
        zone_hits = sum(s.queries_served for name, s in servers.items()
                        if name.startswith("ns"))
        assert tld_hits == 1
        assert zone_hits == 1

    def test_second_lookup_answers_from_cache(self, world):
        world.resolve("pool.ntp.org")
        queries = world.resolver.stats.upstream_queries
        second = world.resolve("pool.ntp.org")
        assert second.from_cache
        assert world.resolver.stats.upstream_queries == queries

    def test_cache_expiry_reopens_exposure_window(self, world):
        world.resolve("pool.ntp.org")
        assert world.resolver.stats.exposure_windows == 1
        world.simulator.run(until=world.simulator.now + 61)
        outcome = world.resolve("pool.ntp.org")
        assert not outcome.from_cache
        assert world.resolver.stats.exposure_windows == 2
        assert world.resolver.stats.exposure_open_s > 0.0

    def test_negative_caching(self, world):
        first = world.resolve("missing.ntp.org")
        assert first.status is ResolveStatus.NXDOMAIN
        queries = world.resolver.stats.upstream_queries
        second = world.resolve("missing.ntp.org")
        assert second.status is ResolveStatus.NXDOMAIN
        assert second.from_cache
        assert world.resolver.stats.upstream_queries == queries

    def test_glueless_delegation_still_resolves(self):
        world = HierarchyWorld(spec=HierarchySpec(glue=False))
        outcome = world.resolve("pool.ntp.org")
        assert outcome.ok
        # The glueless walk costs extra upstream queries (NS-name
        # resolution through the always-glued nsdomain delegation).
        glued = HierarchyWorld()
        glued.resolve("pool.ntp.org")
        assert (world.resolver.stats.upstream_queries
                > glued.resolver.stats.upstream_queries)

    def test_ns_redundancy_shapes_tree(self):
        world = HierarchyWorld(spec=HierarchySpec(ns_count=4))
        names = set(world.deployment.hosts)
        assert sum(1 for n in names if n.endswith("org-servers.net")) == 4
        assert sum(1 for n in names if n.startswith("ns")) == 4
        assert world.resolve("pool.ntp.org").ok

    def test_custom_tree_labels(self):
        spec = HierarchySpec(tld="net", zone="time.net",
                             nsdomain="timens.net")
        world = HierarchyWorld(spec=spec)
        assert world.resolve("pool.time.net").ok

    def test_root_hints_point_at_hierarchy_root(self, world):
        (_, address), = world.deployment.root_hints
        assert str(address) == HIERARCHY_ROOT_ADDRESS

    def test_pool_rotation_uses_directory(self, world):
        first = world.resolve("pool.ntp.org")
        world.simulator.run(until=world.simulator.now + 61)
        second = world.resolve("pool.ntp.org")
        # Both answers draw from the same directory's benign pool.
        benign = {str(a) for a in world.deployment.directory.benign}
        assert addresses(first) <= benign
        assert addresses(second) <= benign

    def test_traced_non_ascii_label_resolves_like_untraced(self):
        # The resolver stringifies qname and zone into its spans; a
        # wire-style label byte >= 0x80 must not make tracing fail a
        # lookup that untraced code completes.
        qname = Name.from_labels((b"\xff", b"pool", b"ntp", b"org"))
        untraced = HierarchyWorld().resolve(qname)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = HierarchyWorld().resolve(qname)
        assert untraced.status is ResolveStatus.NXDOMAIN
        assert traced == untraced
        resolves = [span for span in tracer.spans
                    if span.name == "resolver.resolve"]
        assert [span.attrs["qname"] for span in resolves] == [
            "\\255.pool.ntp.org"]


class TestLegacyTree:
    def test_legacy_tree_has_no_spec(self):
        rng = RngRegistry(7)
        simulator = Simulator()
        topology = Topology.global_backbone(rng_registry=rng)
        topology.add_link("dns-root-edge", "us-east", LinkProfile.metro())
        topology.add_link("dns-org-edge", "eu-west", LinkProfile.metro())
        topology.add_link("ntpns-edge", "us-west", LinkProfile.metro())
        internet = Internet(simulator, topology, rng)
        tree = compile_legacy_tree(internet, rng, PoolSpec())
        assert tree.spec is None
        assert str(tree.pool_domain) == "pool.ntp.org"
        assert "root" in tree.servers and "org" in tree.servers
        (_, address), = tree.root_hints
        assert str(address) == "10.0.0.1"
