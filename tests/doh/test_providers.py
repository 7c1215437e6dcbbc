"""Tests for provider profiles and deployment."""

import pytest

from repro.doh.providers import (
    CLOUDFLARE,
    FIGURE1_PROVIDERS,
    GOOGLE,
    QUAD9,
    deploy_provider,
)
from repro.doh.tls import CertificateAuthority
from repro.scenarios import materialize, pool_spec


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
