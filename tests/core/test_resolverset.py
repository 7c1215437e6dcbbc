"""Tests for the security bound over the trusted resolver set."""

from repro.analysis.model import required_corrupted_resolvers
from repro.core.pool import ResolverRef, SecurePoolGenerator
from repro.netsim.address import Endpoint, ip


def refs(count):
    return [ResolverRef(name=f"doh{i}.example",
                        endpoint=Endpoint(ip(f"10.53.0.{i + 1}"), 443))
            for i in range(count)]


class TestSecurityBounds:
    def test_attacker_must_corrupt_full_pool(self):
        # Controlling every answer takes every resolver in the set.
        resolvers = SecurePoolGenerator(None, refs(7), None).resolvers
        assert required_corrupted_resolvers(len(resolvers), 1.0) \
            == len(resolvers) == 7
