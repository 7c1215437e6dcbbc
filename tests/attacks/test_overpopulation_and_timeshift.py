"""Over-population defence (E5 logic) and end-to-end time shift (E7)."""

import pytest

from repro.attacks.overpopulation import OverPopulationAttack
from repro.campaign import timeshift_trial
from repro.campaign.trials import TIMESHIFT_CONFIGURATIONS
from repro.core.policy import TruncationPolicy
from repro.dns.client import StubResolver
from repro.dns.rrtype import RRType
from repro.scenarios import get_spec_preset, materialize, pool_spec


class TestOverPopulation:
    def test_truncation_neutralises_inflation(self):
        """With SHORTEST truncation, a 1-of-3 attacker inflating to 20
        addresses still owns exactly 1/3 of the pool."""
        scenario = materialize(pool_spec(num_providers=3, answers_per_query=4),
                               120)
        attack = OverPopulationAttack(scenario, corrupted=1, inflate_to=20)
        result = attack.run(TruncationPolicy.SHORTEST)
        assert result.pool.ok
        assert result.attacker_fraction == pytest.approx(1 / 3)
        assert not result.attacker_controls_majority

    def test_without_truncation_attacker_wins(self):
        """Ablation: NONE truncation lets the inflated list dominate —
        reproducing [1]'s attack shape."""
        scenario = materialize(pool_spec(num_providers=3, answers_per_query=4),
                               121)
        attack = OverPopulationAttack(scenario, corrupted=1, inflate_to=20)
        result = attack.run(TruncationPolicy.NONE)
        assert result.pool.ok
        # 20 attacker addresses vs 2x4 honest.
        assert result.attacker_fraction == pytest.approx(20 / 28)
        assert result.attacker_controls_majority

    def test_median_truncation_partial_defence(self):
        scenario = materialize(pool_spec(num_providers=3, answers_per_query=4),
                               122)
        attack = OverPopulationAttack(scenario, corrupted=1, inflate_to=20)
        result = attack.run(TruncationPolicy.MEDIAN)
        # Median of (4, 4, 20) is 4: same as SHORTEST here.
        assert result.attacker_fraction == pytest.approx(1 / 3)

    def test_corrupted_count_validation(self):
        scenario = materialize(pool_spec(), 123)
        with pytest.raises(ValueError):
            OverPopulationAttack(scenario, corrupted=0)


class TestTimeShiftEndToEnd:
    """The paper's headline claim, one configuration per test."""

    @pytest.fixture(scope="class")
    def results(self):
        return {configuration: timeshift_trial(
                    {"configuration": configuration, "lie_offset": 10.0,
                     "num_providers": 3, "corrupted_providers": 1}, seed=7)
                for configuration in TIMESHIFT_CONFIGURATIONS}

    def test_plain_dns_naive_client_shifted(self, results):
        result = results["plain-dns+naive-sntp"]
        assert result["pool_malicious_fraction"] == 1.0
        assert result["shifted"] == 1.0
        assert result["clock_error"] == pytest.approx(10.0, abs=0.5)

    def test_plain_dns_chronos_still_shifted(self, results):
        """[1]: Chronos cannot survive a fully poisoned pool."""
        result = results["plain-dns+chronos"]
        assert result["pool_malicious_fraction"] == 1.0
        assert result["shifted"] == 1.0
        assert result["clock_error"] == pytest.approx(10.0, abs=0.5)

    def test_distributed_doh_bounds_malicious_fraction(self, results):
        for name in ("distributed-doh+naive-sntp", "distributed-doh+chronos"):
            result = results[name]
            assert result["pool_malicious_fraction"] == pytest.approx(
                1 / 3, abs=0.01)

    def test_distributed_doh_chronos_not_shifted(self, results):
        """The paper's proposal: Algorithm 1 + Chronos keeps time."""
        result = results["distributed-doh+chronos"]
        assert result["synced"] == 1.0
        assert result["shifted"] == 0.0
        assert abs(result["clock_error"]) < 0.1

    @staticmethod
    def _rewritten(acquire) -> int:
        """Plaintext DNS responses the preset world's on-path attacker
        rewrote while ``acquire`` fetched the pool."""
        world = materialize(get_spec_preset("e7-timeshift")(), 7)
        acquire(world)
        (mitm,) = [attack for kind, attack in world.attacks if kind == "mitm"]
        return mitm.stats.dns_responses_rewritten

    def test_mitm_only_rewrites_plaintext(self):
        def plain_dns(world):
            StubResolver(world.client, world.simulator,
                         world.providers[0].address, timeout=5.0).query(
                world.pool_domain, RRType.A, lambda outcome: None)
            world.simulator.run()

        assert self._rewritten(plain_dns) >= 1
        assert self._rewritten(lambda world: world.generate_pool_sync()) == 0
