"""Tests for provider profiles and deployment."""

import json
import random

import pytest

from repro.doh.providers import (
    CLOUDFLARE,
    FIGURE1_PROVIDERS,
    GOOGLE,
    QUAD9,
    deploy_provider,
)
from repro.doh.client import DoHClient
from repro.doh.tls import CertificateAuthority, KeyPair
from repro.dns.rrtype import RRType
from repro.scenarios import materialize, pool_spec, population_spec
from repro.scenarios.spec import set_path
from tests.doh.record_certificates import (
    FIXTURE_PATH,
    WORLDS,
    build,
    certificates,
)

RECORDED = json.loads(FIXTURE_PATH.read_text())


class TestFigure1Profiles:
    def test_the_three_named_providers(self):
        assert GOOGLE.name == "dns.google"
        assert CLOUDFLARE.name == "cloudflare-dns.com"
        assert QUAD9.name == "dns.quad9.net"
        assert len(FIGURE1_PROVIDERS) == 3

    def test_distinct_regions(self):
        regions = {p.region for p in FIGURE1_PROVIDERS}
        assert len(regions) == 3

    def test_str(self):
        assert str(GOOGLE) == "dns.google@us-west"


class TestDeployment:
    def test_deployment_wiring(self):
        scenario = materialize(pool_spec(), 160)
        deployment = scenario.providers[0]
        assert deployment.name == "dns.google"
        assert deployment.endpoint.port == 443
        assert deployment.host.owns_address(deployment.address)
        # Resolver and DoH server share the host.
        assert deployment.resolver.host is deployment.host
        assert deployment.doh_server.resolver is deployment.resolver

    def test_certificate_binds_name_and_key(self):
        scenario = materialize(pool_spec(), 161)
        deployment = scenario.providers[1]
        assert deployment.certificate.subject == deployment.name
        assert deployment.certificate.public_key == deployment.keypair.public
        assert scenario.trust_store.verify(deployment.certificate,
                                           deployment.name)

    def test_certificates_differ_between_providers(self):
        scenario = materialize(pool_spec(), 162)
        fingerprints = {p.certificate.fingerprint for p in scenario.providers}
        assert len(fingerprints) == 3

    def test_cannot_deploy_same_profile_twice(self):
        scenario = materialize(pool_spec(), 163)
        ca = CertificateAuthority("x", scenario.rng.stream("x"))
        with pytest.raises(ValueError):
            deploy_provider(scenario.internet, GOOGLE.__class__(
                name="dns.google", region="us-west", address="10.53.0.1"),
                ca, scenario.root_hints, scenario.rng)

    def test_provider_serves_plain_dns_too(self):
        """Each provider also answers classic UDP :53 (used as the
        plain-DNS baseline in E7/E10)."""
        from repro.dns.client import StubResolver
        from repro.dns.rrtype import RRType
        scenario = materialize(pool_spec(), 164)
        stub = StubResolver(scenario.client, scenario.simulator,
                            scenario.providers[0].address, timeout=5.0)
        outcomes = []
        stub.query(scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        assert outcomes[0].ok
        assert len(outcomes[0].addresses) == 4


class TestLazyIdentity:
    """A provider's key pair and certificate are made on first use, and
    every value is the one the eager deployment made (the fixture was
    recorded from a tree that minted them in ``deploy_provider``)."""

    @pytest.mark.parametrize("key,count,seed", WORLDS)
    def test_certificates_match_the_recorded_fixture(self, key, count, seed):
        world = build(count, seed)
        assert RECORDED[key] == {"providers": count, "seed": seed,
                                 "certificates": certificates(world)}
        for deployment in world.providers:
            assert world.trust_store.verify(deployment.certificate,
                                            deployment.name)
            assert deployment.keypair.public == \
                deployment.certificate.public_key

    @pytest.mark.parametrize("key,count,seed", WORLDS)
    def test_an_earlier_issue_shifts_no_provider_serial(self, key, count,
                                                        seed):
        # The CA issues another certificate before any provider is
        # contacted, and the providers are first read last to first.
        world = build(count, seed)
        other = world.authority.issue(
            "other.example", KeyPair.generate(random.Random(5)).public)
        assert other.serial == count + 1
        for deployment in reversed(world.providers):
            deployment.certificate
        assert certificates(world) == RECORDED[key]["certificates"]

    def test_the_first_handshake_makes_only_that_providers_identity(self):
        world = build(3, 23)
        assert [d.identity._made for d in world.providers] == [None] * 3
        last = world.providers[2]
        client = DoHClient(world.client, world.simulator, world.trust_store,
                           rng=random.Random(1))
        outcomes = []
        client.query(last.endpoint, last.name, world.pool_domain, RRType.A,
                     outcomes.append)
        world.simulator.run()
        assert outcomes[0].ok
        assert [d.identity._made is not None
                for d in world.providers] == [False, False, True]
        assert last.doh_server.tls.certificate is last.certificate
        assert certificates(world)[2] == \
            RECORDED["figure1"]["certificates"][2]

    def test_plain_dns_provider_is_the_same_deployment_without_doh(self):
        spec = population_spec(num_clients=2, rounds=1)
        doh = materialize(spec, 31).pool
        dns = materialize(set_path(spec, "provider.serve", "dns"), 31).pool
        for plain, full in zip(dns.providers, doh.providers):
            assert (plain.name, plain.address) == (full.name, full.address)
            assert plain.resolver.host is plain.host
            assert plain.doh_server is None
            assert plain.certificate is None and plain.keypair is None
            with pytest.raises(ValueError):
                plain.endpoint
        # No serial was reserved for a provider without a front end.
        assert dns.authority.issue("x.example", 5).serial == 1
