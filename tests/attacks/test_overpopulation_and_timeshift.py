"""End-to-end time shift (E7).

The over-population defence (E5) is checked through ``spec_trial`` in
``tests/campaign/test_trials.py`` (``test_inflate_share_under_truncation``).
"""

import pytest

from repro.campaign import spec_trial
from repro.dns.client import StubResolver
from repro.dns.rrtype import RRType
from repro.scenarios import get_spec_preset, materialize
from tests.campaign.record_timeshift_records import CONFIGURATIONS, e7_spec


class TestTimeShiftEndToEnd:
    """The paper's headline claim, one configuration per test."""

    @pytest.fixture(scope="class")
    def results(self):
        return {configuration: spec_trial(
                    {"spec": e7_spec(configuration)}, seed=7)
                for configuration in CONFIGURATIONS}

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
