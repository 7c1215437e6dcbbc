"""Fragmentation-poisoning tests (Herzberg & Shulman [5] model)."""

import pytest

from repro.attacks.fragmentation import FragmentationPoisoner
from repro.dns.client import StubResolver
from repro.dns.rrtype import RRType
from repro.scenarios import materialize, pool_spec

FORGED = ["203.0.113.77", "203.0.113.78"]
CLIENT_LINK = "client-edge--eu-central"


def stub_lookup(scenario):
    stub = StubResolver(scenario.client, scenario.simulator,
                        scenario.providers[0].address, timeout=5.0)
    outcomes = []
    stub.query(scenario.pool_domain, RRType.A, outcomes.append)
    scenario.simulator.run()
    assert len(outcomes) == 1
    return outcomes[0]


class TestFragmentationPoisoner:
    def test_small_responses_are_untouchable(self):
        """Four A records fit in one fragment: attack has no purchase."""
        scenario = materialize(pool_spec(answers_per_query=4), 110)
        poisoner = FragmentationPoisoner(
            scenario.internet, CLIENT_LINK, scenario.pool_domain, FORGED,
            mtu=576)
        outcome = stub_lookup(scenario)
        assert outcome.ok
        for address in outcome.addresses:
            assert scenario.directory.is_benign(address)
        assert poisoner.stats.oversized_seen == 0
        assert poisoner.stats.tails_rewritten == 0

    def test_oversized_response_tail_rewritten(self):
        """A large answer list fragments; trailing records get forged."""
        scenario = materialize(pool_spec(pool_size=64, answers_per_query=40),
                               111)
        poisoner = FragmentationPoisoner(
            scenario.internet, CLIENT_LINK, scenario.pool_domain, FORGED,
            mtu=576)
        outcome = stub_lookup(scenario)
        assert outcome.ok
        assert poisoner.stats.oversized_seen >= 1
        assert poisoner.stats.tails_rewritten >= 1
        addresses = [str(a) for a in outcome.addresses]
        # Head of the answer is genuine, tail is forged.
        assert any(a in FORGED for a in addresses)
        assert any(scenario.directory.is_benign(a) for a in addresses)
        assert len(addresses) == 40

    def test_failed_ipid_prediction_changes_nothing(self):
        scenario = materialize(pool_spec(pool_size=64, answers_per_query=40),
                               112)
        poisoner = FragmentationPoisoner(
            scenario.internet, CLIENT_LINK, scenario.pool_domain, FORGED,
            mtu=576, ipid_prediction_works=False)
        outcome = stub_lookup(scenario)
        assert outcome.ok
        assert poisoner.stats.tails_rewritten == 0
        for address in outcome.addresses:
            assert scenario.directory.is_benign(address)

    def test_other_domains_untouched(self):
        scenario = materialize(pool_spec(pool_size=64, answers_per_query=40),
                               113)
        FragmentationPoisoner(
            scenario.internet, CLIENT_LINK, "victim.example", FORGED,
            mtu=576)
        outcome = stub_lookup(scenario)
        for address in outcome.addresses:
            assert scenario.directory.is_benign(address)

    def test_doh_immune_to_fragment_poisoning(self):
        """The same oversized lookup over DoH is untouchable: the tail
        the attacker would overwrite is MAC-protected ciphertext."""
        scenario = materialize(pool_spec(pool_size=64, answers_per_query=40),
                               114)
        poisoner = FragmentationPoisoner(
            scenario.internet, CLIENT_LINK, scenario.pool_domain, FORGED,
            mtu=576)
        pool = scenario.generate_pool_sync()
        assert pool.ok
        for address in pool.addresses:
            assert scenario.directory.is_benign(address)
        assert poisoner.stats.tails_rewritten == 0
