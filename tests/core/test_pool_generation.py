"""Integration tests: Algorithm 1 end-to-end over the Figure 1 world."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.pool import (
    PoolGeneratorConfig,
    ResolverRef,
    SecurePoolGenerator,
)
from repro.netsim.address import Endpoint, ip
from repro.scenarios import materialize, pool_spec, set_path


def refs(count):
    return [ResolverRef(name=f"doh{i}.example",
                        endpoint=Endpoint(ip(f"10.53.0.{i + 1}"), 443))
            for i in range(count)]


def with_policy(spec, **pool):
    """``spec`` with the given ``pool.*`` Algorithm 1 policy fields."""
    for name, value in pool.items():
        spec = set_path(spec, f"pool.{name}", value)
    return spec


class TestGeneratorResolvers:
    def test_basic_construction(self):
        generator = SecurePoolGenerator(None, refs(3), None)
        assert len(generator.resolvers) == 3

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            SecurePoolGenerator(None, [], None)

    def test_duplicate_names_rejected(self):
        duplicated = refs(2) + [refs(1)[0]]
        with pytest.raises(ConfigurationError):
            SecurePoolGenerator(None, duplicated, None)

    def test_iteration_and_indexing(self):
        generator = SecurePoolGenerator(None, refs(3), None)
        assert [r.name for r in generator.resolvers] == [
            f"doh{i}.example" for i in range(3)]
        assert generator.resolvers[0].name == "doh0.example"


class TestGenerationHappyPath:
    def test_pool_has_n_times_k_addresses(self):
        scenario = materialize(pool_spec(num_providers=3, pool_size=20,
                                         answers_per_query=4), 21)
        pool = scenario.generate_pool_sync()
        assert pool.ok
        assert pool.truncate_length == 4
        assert len(pool.addresses) == 3 * 4
        assert not pool.degraded
        assert pool.failed_resolvers == []

    def test_all_addresses_from_directory(self):
        scenario = materialize(pool_spec(num_providers=3), 22)
        pool = scenario.generate_pool_sync()
        for address in pool.addresses:
            assert scenario.directory.is_benign(address)

    def test_contribution_bound_holds(self):
        scenario = materialize(pool_spec(num_providers=5, pool_size=30), 23)
        pool = scenario.generate_pool_sync()
        assert pool.max_contribution_fraction() <= 1 / 5 + 1e-9

    def test_elapsed_time_recorded(self):
        scenario = materialize(pool_spec(), 24)
        pool = scenario.generate_pool_sync()
        assert pool.elapsed > 0

    def test_many_providers(self):
        scenario = materialize(pool_spec(num_providers=9, pool_size=50), 25)
        pool = scenario.generate_pool_sync()
        assert pool.ok
        assert len(pool.contributions) == 9

    def test_deterministic_given_seed(self):
        first = materialize(pool_spec(), 26).generate_pool_sync()
        second = materialize(pool_spec(), 26).generate_pool_sync()
        assert [str(a) for a in first.addresses] == [
            str(a) for a in second.addresses]


class TestGenerationFailures:
    def make_partitioned_scenario(self, seed=27, num_providers=3,
                                  cut_provider_index=0, **pool):
        scenario = materialize(
            with_policy(pool_spec(num_providers=num_providers), **pool), seed)
        victim = scenario.providers[cut_provider_index]
        topology = scenario.internet.topology
        # Cutting the provider region would also cut co-located ones;
        # instead blackhole just this provider with a dropping tap on
        # its access region — simplest is removing its host routes by
        # dropping datagrams addressed to it.
        from repro.netsim.internet import TapAction
        victim_address = victim.address

        def blackhole(link, datagram):
            if datagram.dst.address == victim_address:
                return TapAction.drop()
            return TapAction.passthrough()

        for link in topology.links:
            scenario.internet.add_tap(link.name, blackhole)
        return scenario, victim

    def test_strict_mode_fails_when_one_resolver_dark(self):
        scenario, victim = self.make_partitioned_scenario()
        generator = scenario.make_generator(timeout=1.0)
        pool = scenario.generate_pool_sync(generator)
        assert not pool.ok
        assert victim.name in pool.failed_resolvers

    def test_quorum_mode_degrades_gracefully(self):
        scenario, victim = self.make_partitioned_scenario(seed=28,
                                                          min_answers=2)
        generator = scenario.make_generator(timeout=1.0)
        pool = scenario.generate_pool_sync(generator)
        assert pool.ok
        assert pool.degraded
        assert victim.name in pool.failed_resolvers
        assert len(pool.contributions) == 2

    def test_min_answers_validation(self):
        with pytest.raises(ConfigurationError):
            SecurePoolGenerator(None, refs(3), None,
                                PoolGeneratorConfig(min_answers=4))


class TestDualStack:
    def test_union_policy_pools_both_families(self):
        scenario = materialize(with_policy(
            pool_spec(dual_stack=True, pool_size=12, answers_per_query=3),
            dual_stack_policy="union"), 30)
        pool = scenario.generate_pool_sync()
        assert pool.ok
        families = {address.family for address in pool.addresses}
        assert families == {4, 6}
        # Union: per-resolver lists are A+AAAA, so K = 2 * 3.
        assert pool.truncate_length == 6

    def test_per_family_policy(self):
        scenario = materialize(with_policy(
            pool_spec(dual_stack=True, pool_size=12, answers_per_query=3),
            dual_stack_policy="per-family"), 31)
        pool = scenario.generate_pool_sync()
        assert pool.ok
        v4 = [a for a in pool.addresses if a.family == 4]
        v6 = [a for a in pool.addresses if a.family == 6]
        # Each family independently combined: N*K per family.
        assert len(v4) == 3 * 3
        assert len(v6) == 3 * 3


class TestTruncationAblation:
    def test_none_policy_lets_long_answers_through(self):
        scenario = materialize(with_policy(pool_spec(num_providers=3),
                                           truncation="none"), 32)
        pool = scenario.generate_pool_sync()
        assert pool.ok
        # All resolvers answer 4 here, so sizes agree with SHORTEST...
        assert len(pool.addresses) == 12
        # ...but the policy is recorded for the E5 ablation to vary.
        assert pool.truncate_length == 4
