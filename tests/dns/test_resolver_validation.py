"""Unit tests of the recursive resolver's response-acceptance checks.

Each test injects one precisely crafted forged datagram against a live
resolution and asserts it is rejected for the right reason — the checks
that make off-path poisoning a race rather than a certainty.
"""

import pytest

from repro.dns.message import Flags, Message, Question, ResourceRecord
from repro.dns.name import Name
from repro.dns.rcode import RCode
from repro.dns.rdata import ARdata
from repro.dns.resolver import ResolverConfig
from repro.dns.rrtype import RRType
from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.packet import Datagram

from tests.dns.conftest import build_dns_world

QNAME = Name("pool.ntppool.org")
FORGED_ADDRESS = "203.0.113.13"


def weak_world():
    """Resolver with fully predictable TXID (0) and ports."""
    world = build_dns_world(
        seed=170,
        resolver_config=ResolverConfig(txid_bits=1, randomize_txid=False))
    world.resolver.host.randomize_ports = False
    return world


def forged_message(txid=0, qname=QNAME, qtype=RRType.A,
                   rcode=RCode.NOERROR):
    return Message(
        txid=txid,
        flags=Flags(qr=True, aa=True, rcode=rcode),
        questions=[Question(qname, qtype)],
        answers=[ResourceRecord(qname, RRType.A, 3600,
                                ARdata(FORGED_ADDRESS))])


def start_resolution_and_inject(world, message, src=None, dst_port=32768):
    """Kick off a lookup, then inject one forged reply at the resolver."""
    outcomes = []
    world.resolver.resolve(QNAME, RRType.A, outcomes.append)
    forged = Datagram(
        src=src or Endpoint(IPAddress("10.0.0.1"), 53),
        dst=Endpoint(IPAddress("10.0.1.1"), dst_port),
        payload=message.encode())
    world.internet.inject(forged, at_node="core")
    world.simulator.run()
    assert len(outcomes) == 1
    return outcomes[0]


def was_poisoned(outcome) -> bool:
    return any(str(record.rdata.address) == FORGED_ADDRESS
               for record in outcome.records)


class TestAcceptanceChecks:
    def test_baseline_perfect_forgery_wins(self):
        """Sanity: with everything guessed right, the forgery lands."""
        world = weak_world()
        outcome = start_resolution_and_inject(world, forged_message(txid=0))
        assert outcome.ok
        assert was_poisoned(outcome)
        assert world.resolver.stats.poisoned_acceptances == 1

    def test_wrong_txid_rejected(self):
        world = weak_world()
        outcome = start_resolution_and_inject(world, forged_message(txid=1))
        assert not was_poisoned(outcome)
        assert world.resolver.stats.spoofs_rejected >= 1
        assert world.resolver.stats.poisoned_acceptances == 0

    def test_wrong_destination_port_never_arrives(self):
        world = weak_world()
        outcome = start_resolution_and_inject(world, forged_message(txid=0),
                                              dst_port=40000)
        assert not was_poisoned(outcome)
        assert world.resolver.stats.poisoned_acceptances == 0

    def test_wrong_source_address_rejected(self):
        """Claiming to be the org server while the resolver asked the
        root must fail the source check."""
        world = weak_world()
        outcome = start_resolution_and_inject(
            world, forged_message(txid=0),
            src=Endpoint(IPAddress("10.0.0.2"), 53))
        assert not was_poisoned(outcome)
        assert world.resolver.stats.spoofs_rejected >= 1

    def test_wrong_source_port_rejected(self):
        world = weak_world()
        outcome = start_resolution_and_inject(
            world, forged_message(txid=0),
            src=Endpoint(IPAddress("10.0.0.1"), 5353))
        assert not was_poisoned(outcome)

    def test_wrong_question_name_rejected(self):
        world = weak_world()
        outcome = start_resolution_and_inject(
            world, forged_message(txid=0, qname=Name("evil.ntppool.org")))
        assert not was_poisoned(outcome)
        assert world.resolver.stats.spoofs_rejected >= 1

    def test_wrong_question_type_rejected(self):
        world = weak_world()
        message = forged_message(txid=0)
        message.questions = [Question(QNAME, RRType.AAAA)]
        outcome = start_resolution_and_inject(world, message)
        assert not was_poisoned(outcome)

    def test_query_bit_not_response_rejected(self):
        world = weak_world()
        message = forged_message(txid=0)
        message.flags = Flags(qr=False)
        outcome = start_resolution_and_inject(world, message)
        assert not was_poisoned(outcome)

    def test_garbage_payload_rejected(self):
        world = weak_world()
        outcomes = []
        world.resolver.resolve(QNAME, RRType.A, outcomes.append)
        forged = Datagram(src=Endpoint(IPAddress("10.0.0.1"), 53),
                          dst=Endpoint(IPAddress("10.0.1.1"), 32768),
                          payload=b"\xff\x00garbage")
        world.internet.inject(forged, at_node="core")
        world.simulator.run()
        assert not was_poisoned(outcomes[0])
        assert world.resolver.stats.spoofs_rejected >= 1


class TestBailiwick:
    def test_out_of_zone_answer_records_filtered(self):
        """A genuine-looking response carrying extra out-of-bailiwick
        records must not pollute the cache (Kaminsky-style payload)."""
        world = weak_world()
        message = forged_message(txid=0)
        # The spoofed root response also tries to plant www.example.com.
        message.answers.append(ResourceRecord(
            Name("www.victim.example"), RRType.A, 86_400,
            ARdata("203.0.113.99")))
        outcome = start_resolution_and_inject(world, message)
        # The in-zone forgery landed (weak resolver, exact guess)...
        assert was_poisoned(outcome)
        # Bailiwick here is the root zone (the resolver asked a root
        # server), so nothing is filtered — but the victim record must
        # not satisfy a *different* question from cache unless cached
        # under its own key legitimately.
        cached = world.resolver.cache.get(Name("www.victim.example"),
                                          RRType.A)
        assert cached is None

    def test_tld_server_cannot_speak_above_its_zone(self):
        """An on-path attacker splices a record for a name *above* the
        queried zone into a genuine referral; the resolver must filter
        it (bailiwick) and never cache it."""
        from repro.dns.wire import WireFormatError
        from repro.netsim.internet import TapAction

        world = build_dns_world(seed=171)
        poison_name = Name("a.root-servers.net")  # above the org zone

        def splice(link, datagram):
            if datagram.src.port != 53:
                return TapAction.passthrough()
            try:
                message = Message.decode(datagram.payload)
            except WireFormatError:
                return TapAction.passthrough()
            # Only touch the org server's referral responses.
            if (not message.is_response
                    or datagram.src.address != IPAddress("10.0.0.2")):
                return TapAction.passthrough()
            message.additional.append(ResourceRecord(
                poison_name, RRType.A, 86_400, ARdata("203.0.113.99")))
            return TapAction.rewrite(message.encode())

        world.internet.add_tap("core--tld-net", splice)
        outcomes = []
        world.resolver.resolve(QNAME, RRType.A, outcomes.append)
        world.simulator.run()
        # Resolution itself succeeds (the referral was otherwise valid)...
        assert outcomes[0].ok
        assert not was_poisoned(outcomes[0])
        # ...the spliced record was dropped by the bailiwick filter...
        assert world.resolver.stats.bailiwick_rejected_records >= 1
        # ...and never entered the cache.
        assert world.resolver.cache.get(poison_name, RRType.A) is None
