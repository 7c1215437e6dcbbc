"""On-path MitM and compromised-provider attacks."""

import pytest

from repro.attacks.compromise import (
    CompromiseConfig,
    CompromisedResolverBehavior,
    compromise_provider,
    corrupt_first_k,
)
from repro.attacks.mitm import OnPathAttacker
from repro.core.pool import PoolGeneratorConfig
from repro.dns.client import StubResolver
from repro.dns.rrtype import RRType
from repro.doh.client import DoHClient, DoHStatus
from repro.netsim.address import IPAddress
from repro.scenarios import materialize, pool_spec

FORGED = [f"203.0.113.{i + 1}" for i in range(4)]
CLIENT_LINK = "client-edge--eu-central"


class TestOnPathPlaintextDns:
    def test_poisons_stub_lookup(self):
        scenario = materialize(pool_spec(), 90)
        mitm = OnPathAttacker(scenario.internet, [CLIENT_LINK])
        mitm.poison_a_records(scenario.pool_domain, FORGED)
        stub = StubResolver(scenario.client, scenario.simulator,
                            scenario.providers[0].address, timeout=5.0)
        outcomes = []
        stub.query(scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        assert outcomes[0].ok
        assert {str(a) for a in outcomes[0].addresses} == set(FORGED)
        assert mitm.stats.dns_responses_rewritten == 1

    def test_inflation(self):
        scenario = materialize(pool_spec(), 91)
        mitm = OnPathAttacker(scenario.internet, [CLIENT_LINK])
        mitm.poison_a_records(scenario.pool_domain, FORGED, inflate_to=16)
        stub = StubResolver(scenario.client, scenario.simulator,
                            scenario.providers[0].address, timeout=5.0)
        outcomes = []
        stub.query(scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        assert len(outcomes[0].addresses) == 16

    def test_empty_answer_dos(self):
        scenario = materialize(pool_spec(), 92)
        mitm = OnPathAttacker(scenario.internet, [CLIENT_LINK])
        mitm.empty_a_answers(scenario.pool_domain)
        stub = StubResolver(scenario.client, scenario.simulator,
                            scenario.providers[0].address, timeout=5.0)
        outcomes = []
        stub.query(scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        assert outcomes[0].ok
        assert outcomes[0].addresses == []

    def test_uninvolved_names_untouched(self):
        scenario = materialize(pool_spec(), 93)
        mitm = OnPathAttacker(scenario.internet, [CLIENT_LINK])
        mitm.poison_a_records(scenario.pool_domain, FORGED)
        stub = StubResolver(scenario.client, scenario.simulator,
                            scenario.providers[0].address, timeout=5.0)
        outcomes = []
        stub.query("c.ntpns.org", RRType.A, outcomes.append)
        scenario.simulator.run()
        assert [str(a) for a in outcomes[0].addresses] == ["10.0.0.11"]


class TestOnPathVersusTls:
    def test_cannot_poison_doh_queries(self):
        """The same rewriting attacker is powerless against DoH."""
        scenario = materialize(pool_spec(), 94)
        mitm = OnPathAttacker(scenario.internet, [CLIENT_LINK])
        mitm.poison_a_records(scenario.pool_domain, FORGED)
        pool = scenario.generate_pool_sync()
        assert pool.ok
        for address in pool.addresses:
            assert scenario.directory.is_benign(address)
        assert mitm.stats.dns_responses_rewritten == 0
        assert mitm.stats.tls_records_seen > 0

    def test_tls_blocking_is_dos_not_poison(self):
        scenario = materialize(pool_spec(), 95)
        mitm = OnPathAttacker(scenario.internet, [CLIENT_LINK])
        mitm.block_tls()
        client = scenario.make_doh_client(timeout=1.0)
        outcomes = []
        provider = scenario.providers[0]
        client.query(provider.endpoint, provider.name,
                     scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        assert outcomes[0].status is DoHStatus.TIMEOUT
        assert mitm.stats.packets_dropped > 0

    def test_tls_delay_slows_but_succeeds(self):
        scenario = materialize(pool_spec(), 96)
        mitm = OnPathAttacker(scenario.internet, [CLIENT_LINK])
        mitm.delay_tls(0.2)
        client = scenario.make_doh_client(timeout=10.0)
        outcomes = []
        provider = scenario.providers[0]
        client.query(provider.endpoint, provider.name,
                     scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        assert outcomes[0].ok
        # Handshake + request/response each cross the link twice.
        assert outcomes[0].latency > 0.4

    def test_blackhole(self):
        scenario = materialize(pool_spec(), 97)
        mitm = OnPathAttacker(scenario.internet, [CLIENT_LINK])
        mitm.block_everything()
        client = scenario.make_doh_client(timeout=0.5)
        outcomes = []
        provider = scenario.providers[0]
        client.query(provider.endpoint, provider.name,
                     scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        assert outcomes[0].status is DoHStatus.TIMEOUT


class TestCompromisedProvider:
    def test_substitution(self):
        scenario = materialize(pool_spec(), 98)
        engine = compromise_provider(scenario.providers[0], CompromiseConfig(
            target=scenario.pool_domain,
            behavior=CompromisedResolverBehavior.SUBSTITUTE,
            forged_addresses=FORGED))
        client = scenario.make_doh_client()
        outcomes = []
        provider = scenario.providers[0]
        client.query(provider.endpoint, provider.name,
                     scenario.pool_domain, RRType.A, outcomes.append)
        scenario.simulator.run()
        assert outcomes[0].ok
        answers = {str(r.rdata.address) for r in outcomes[0].message.answers}
        assert answers == set(FORGED)
        assert engine.poisoned_answers == 1

    def test_compromise_is_selective(self):
        scenario = materialize(pool_spec(), 99)
        compromise_provider(scenario.providers[0], CompromiseConfig(
            target=scenario.pool_domain,
            behavior=CompromisedResolverBehavior.SUBSTITUTE,
            forged_addresses=FORGED))
        client = scenario.make_doh_client()
        outcomes = []
        provider = scenario.providers[0]
        client.query(provider.endpoint, provider.name, "c.ntpns.org",
                     RRType.A, outcomes.append)
        scenario.simulator.run()
        answers = {str(r.rdata.address) for r in outcomes[0].message.answers}
        assert answers == {"10.0.0.11"}

    def test_minority_compromise_bounded_by_algorithm1(self):
        """1 of 3 corrupted: exactly K of the N*K pool is attacker-fed."""
        scenario = materialize(pool_spec(), 100)
        corrupt_first_k(scenario.providers, 1, CompromiseConfig(
            target=scenario.pool_domain,
            behavior=CompromisedResolverBehavior.SUBSTITUTE,
            forged_addresses=FORGED))
        pool = scenario.generate_pool_sync()
        assert pool.ok
        forged_set = {IPAddress(a) for a in FORGED}
        poisoned = sum(1 for a in pool.addresses if a in forged_set)
        assert poisoned == pool.truncate_length  # exactly one share
        assert poisoned / len(pool.addresses) == pytest.approx(1 / 3)

    def test_majority_compromise_wins_as_assumed(self):
        """2 of 3 corrupted: the assumption x ≥ 2/3 fails, so the pool
        is majority-attacker — the model's sharp boundary."""
        scenario = materialize(pool_spec(), 101)
        corrupt_first_k(scenario.providers, 2, CompromiseConfig(
            target=scenario.pool_domain,
            behavior=CompromisedResolverBehavior.SUBSTITUTE,
            forged_addresses=FORGED))
        pool = scenario.generate_pool_sync()
        forged_set = {IPAddress(a) for a in FORGED}
        poisoned = sum(1 for a in pool.addresses if a in forged_set)
        assert poisoned / len(pool.addresses) == pytest.approx(2 / 3)

    def test_empty_behavior_collapses_pool(self):
        """fn.2: one corrupted resolver answering empty DoSes strict
        Algorithm 1."""
        scenario = materialize(pool_spec(), 102)
        corrupt_first_k(scenario.providers, 1, CompromiseConfig(
            target=scenario.pool_domain,
            behavior=CompromisedResolverBehavior.EMPTY))
        pool = scenario.generate_pool_sync()
        assert not pool.ok or pool.truncate_length == 0

    def test_truthful_behavior_changes_nothing(self):
        scenario = materialize(pool_spec(), 103)
        corrupt_first_k(scenario.providers, 1, CompromiseConfig(
            target=scenario.pool_domain,
            behavior=CompromisedResolverBehavior.TRUTHFUL))
        pool = scenario.generate_pool_sync()
        assert pool.ok
        for address in pool.addresses:
            assert scenario.directory.is_benign(address)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CompromiseConfig(target="pool.ntp.org",
                             behavior=CompromisedResolverBehavior.SUBSTITUTE)
