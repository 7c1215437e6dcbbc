"""Off-path poisoning: succeeds against weak stacks, fails against
hardened ones — the quantitative premise of the paper's Introduction."""

import pytest

from repro.attacks.offpath import OffPathPoisoner
from repro.dns.resolver import ResolveStatus, ResolverConfig
from repro.dns.rrtype import RRType
from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.host import EPHEMERAL_RANGE

from tests.dns.conftest import build_dns_world

FORGED = [IPAddress("203.0.113.66")]


def run_poisoning_attempt(world, port_window=4, txid_bits=8):
    """Trigger a resolution and spray forged root-server responses."""
    poisoner = OffPathPoisoner(world.internet, injection_node="core")
    outcomes = []
    world.resolver.resolve("pool.ntppool.org", RRType.A, outcomes.append)
    # The resolver's first upstream query goes to the root server; the
    # attacker races it with forged answers claiming to be the root.
    poisoner.poison_resolver_lookup(
        victim_address=IPAddress("10.0.1.1"),
        qname="pool.ntppool.org", qtype=RRType.A,
        spoofed_server=Endpoint(IPAddress("10.0.0.1"), 53),
        forged_addresses=FORGED,
        port_window=port_window, txid_bits=txid_bits)
    world.simulator.run()
    assert len(outcomes) == 1
    return poisoner, outcomes[0]


class TestWeakResolver:
    def test_predictable_resolver_poisoned(self):
        """Sequential ports + tiny TXID space: the spray wins."""
        world = build_dns_world(
            seed=80,
            resolver_config=ResolverConfig(txid_bits=6,
                                           randomize_txid=False))
        world.resolver.host.randomize_ports = False
        poisoner, outcome = run_poisoning_attempt(world, port_window=4,
                                                  txid_bits=6)
        assert outcome.ok
        addresses = {str(record.rdata.address) for record in outcome.records}
        assert addresses == {"203.0.113.66"}
        assert world.resolver.stats.poisoned_acceptances >= 1

    def test_poison_sticks_in_cache(self):
        world = build_dns_world(
            seed=81,
            resolver_config=ResolverConfig(txid_bits=6,
                                           randomize_txid=False))
        world.resolver.host.randomize_ports = False
        run_poisoning_attempt(world, port_window=4, txid_bits=6)
        outcomes = []
        world.resolver.resolve("pool.ntppool.org", RRType.A, outcomes.append)
        world.simulator.run()
        assert outcomes[0].from_cache
        assert str(outcomes[0].records[0].rdata.address) == "203.0.113.66"


class TestHardenedResolver:
    def test_random_ports_and_txid_defeat_blind_spray(self):
        """Against 16-bit TXID × randomised ports, a 1024-packet burst
        practically never wins (and this seed's run confirms it)."""
        world = build_dns_world(seed=82)
        poisoner, outcome = run_poisoning_attempt(world, port_window=4,
                                                  txid_bits=8)
        assert outcome.ok
        addresses = {str(record.rdata.address) for record in outcome.records}
        assert "203.0.113.66" not in addresses
        assert world.resolver.stats.poisoned_acceptances == 0
        assert poisoner.total_packets_injected == 4 * 256


class TestGuessHelpers:
    def test_sequential_port_guesses(self):
        guesses = OffPathPoisoner.sequential_port_guesses(3)
        assert guesses == [EPHEMERAL_RANGE[0], EPHEMERAL_RANGE[0] + 1,
                           EPHEMERAL_RANGE[0] + 2]

    def test_port_guesses_wrap(self):
        guesses = OffPathPoisoner.sequential_port_guesses(
            3, start=EPHEMERAL_RANGE[1])
        assert guesses[0] == EPHEMERAL_RANGE[1]
        assert guesses[1] == EPHEMERAL_RANGE[0]

    def test_txid_space(self):
        assert OffPathPoisoner.txid_space(2) == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            OffPathPoisoner.txid_space(0)

    def test_spray_accounting(self):
        world = build_dns_world(seed=83)
        poisoner, _ = run_poisoning_attempt(world, port_window=2,
                                            txid_bits=3)
        report = poisoner.reports[0]
        assert report.packets_injected == 2 * 8
        assert report.ports_covered == 2
        assert report.txids_covered == 8
