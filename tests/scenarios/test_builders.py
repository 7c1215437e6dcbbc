"""Tests for scenario assembly and presets."""

import pytest

from repro.dns.rrtype import RRType
from repro.doh.providers import synthetic_profiles
from repro.scenarios import get_spec_preset, materialize, pool_spec


class TestBuildPoolScenario:
    def test_default_three_named_providers(self):
        scenario = materialize(pool_spec(), 1)
        assert [p.name for p in scenario.providers] == [
            "dns.google", "cloudflare-dns.com", "dns.quad9.net"]

    def test_synthetic_providers_beyond_three(self):
        scenario = materialize(pool_spec(num_providers=6), 1)
        assert len(scenario.providers) == 6
        assert scenario.providers[3].name.startswith("doh")

    def test_unique_provider_addresses(self):
        scenario = materialize(pool_spec(num_providers=10), 1)
        addresses = {str(p.address) for p in scenario.providers}
        assert len(addresses) == 10

    def test_zero_providers_rejected(self):
        with pytest.raises(ValueError):
            materialize(pool_spec(num_providers=0), 1)

    def test_profile_count_mismatch_rejected(self):
        from repro.doh.providers import GOOGLE
        with pytest.raises(ValueError):
            materialize(pool_spec(num_providers=2, profiles=[GOOGLE]), 1)

    def test_directory_size(self):
        scenario = materialize(pool_spec(pool_size=33), 1)
        assert len(scenario.directory.benign) == 33

    def test_dual_stack_directory(self):
        scenario = materialize(pool_spec(pool_size=10, dual_stack=True), 1)
        families = {a.family for a in scenario.directory.benign}
        assert families == {4, 6}

    def test_deterministic_same_seed(self):
        a = materialize(pool_spec(), 9).generate_pool_sync()
        b = materialize(pool_spec(), 9).generate_pool_sync()
        assert [str(x) for x in a.addresses] == [str(x) for x in b.addresses]

    def test_different_seeds_differ(self):
        a = materialize(pool_spec(), 9).generate_pool_sync()
        b = materialize(pool_spec(), 10).generate_pool_sync()
        assert [str(x) for x in a.addresses] != [str(x) for x in b.addresses]

    def test_every_region_reachable(self):
        scenario = materialize(pool_spec(), 1)
        topology = scenario.internet.topology
        for node in topology.nodes:
            topology.route("client-edge", node)  # must not raise

    def test_make_generator_over_providers(self):
        scenario = materialize(pool_spec(), 1)
        generator = scenario.make_generator()
        assert [(ref.name, ref.endpoint) for ref in generator.resolvers] == [
            (p.name, p.endpoint) for p in scenario.providers]

    def test_generate_pool_sync_runs_once(self):
        scenario = materialize(pool_spec(), 1)
        pool = scenario.generate_pool_sync()
        assert pool.ok


class TestPresets:
    def test_figure1(self):
        scenario = materialize(get_spec_preset("figure1")(), 4)
        assert len(scenario.providers) == 3
        pool = scenario.generate_pool_sync()
        assert len(pool.addresses) == 12

    def test_large_scale(self):
        scenario = materialize(get_spec_preset("large-scale")(7), 4)
        pool = scenario.generate_pool_sync()
        assert len(pool.contributions) == 7

    def test_lossy_network_still_succeeds(self):
        scenario = materialize(get_spec_preset("lossy-network")(0.10), 4)
        generator = scenario.make_generator(timeout=5.0, retries=8)
        pool = scenario.generate_pool_sync(generator)
        # With enough transport retries, moderate loss must not break
        # Algorithm 1 (each retry is an independent ~66% success draw).
        assert pool.ok


class TestSyntheticProfiles:
    def test_count(self):
        assert len(synthetic_profiles(25, ["a", "b"])) == 25

    def test_unique_names_and_addresses(self):
        profiles = synthetic_profiles(300, ["a"])
        assert len({p.name for p in profiles}) == 300
        assert len({p.address for p in profiles}) == 300

    def test_round_robin_regions(self):
        profiles = synthetic_profiles(4, ["r1", "r2"])
        assert [p.region for p in profiles] == ["r1", "r2", "r1", "r2"]

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_profiles(0, ["a"])
        with pytest.raises(ValueError):
            synthetic_profiles(3, [])
