"""Tests for the trusted resolver set."""

import pytest

from repro.analysis.model import required_corrupted_resolvers
from repro.core.errors import ConfigurationError
from repro.core.resolverset import ResolverRef, ResolverSet
from repro.netsim.address import Endpoint, ip


def refs(count):
    return [ResolverRef(name=f"doh{i}.example",
                        endpoint=Endpoint(ip(f"10.53.0.{i + 1}"), 443))
            for i in range(count)]


class TestResolverSet:
    def test_basic_construction(self):
        rs = ResolverSet(refs(3))
        assert len(rs) == 3
        assert rs.assumed_secure_fraction == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ResolverSet([])

    def test_duplicate_names_rejected(self):
        duplicated = refs(2) + [refs(1)[0]]
        with pytest.raises(ConfigurationError):
            ResolverSet(duplicated)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            ResolverSet(refs(3), assumed_secure_fraction=0.0)
        with pytest.raises(ValueError):
            ResolverSet(refs(3), assumed_secure_fraction=1.5)

    def test_iteration_and_indexing(self):
        rs = ResolverSet(refs(3))
        assert [r.name for r in rs] == [f"doh{i}.example" for i in range(3)]
        assert rs[0].name == "doh0.example"


class TestSecurityBounds:
    def test_attacker_must_corrupt_full_pool(self):
        # Controlling every answer takes every resolver in the set.
        rs = ResolverSet(refs(7))
        assert required_corrupted_resolvers(len(rs), 1.0) == len(rs) == 7
