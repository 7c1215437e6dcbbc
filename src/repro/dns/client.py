"""Stub resolver: the client side of plain DNS.

Sends recursive (RD=1) queries to a configured resolver address over
UDP, with timeout and retry. This is the *insecure baseline* the paper
starts from: one resolver, one path, spoofable transport.

The timeout/retry/transaction machinery lives in
:class:`repro.netsim.transport.Transport`; this module only knows DNS —
how to build a query and how to tell a genuine answer from a spoof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.dns.message import Message, make_query
from repro.dns.name import Name
from repro.dns.rcode import RCode
from repro.dns.rrtype import RRType
from repro.dns.wire import WireFormatError
from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.host import Host
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator
from repro.netsim.transport import (
    PendingExchange,
    RetryPolicy,
    Transport,
    retry_policy,
)

DNS_PORT = 53


def validate_reply(datagram: Datagram, txid: int, server: Endpoint,
                   qname: Name, qtype: RRType) -> Optional[Message]:
    """The DNS reply acceptance predicate both client stacks share.

    Returns the decoded response only when it parses, is a response,
    echoes the transaction ID and the single expected question, and
    arrives from the queried server's endpoint — exactly the checks a
    real implementation performs, no more. This is the security surface
    the paper's off-path attacker races; keeping the stub resolver and
    the recursive resolver on one copy keeps them in lockstep. Callers
    count their own rejection statistics.
    """
    try:
        response = Message.decode(datagram.payload)
    except WireFormatError:
        return None
    if (not response.is_response
            or response.txid != txid
            or datagram.src != server
            or len(response.questions) != 1
            or response.questions[0].qname != qname
            or response.questions[0].qtype != qtype):
        return None
    return response


@dataclass
class StubOutcome:
    """Result of one stub query."""

    response: Optional[Message]
    timed_out: bool = False
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return (self.response is not None
                and self.response.rcode is RCode.NOERROR)

    @property
    def addresses(self) -> List[IPAddress]:
        """Convenience: all A/AAAA addresses in the answer section."""
        if self.response is None:
            return []
        return [record.rdata.address  # type: ignore[attr-defined]
                for record in self.response.answers
                if record.rrtype in (RRType.A, RRType.AAAA)]


StubCallback = Callable[[StubOutcome], None]


@dataclass
class StubStats:
    queries: int = 0
    responses: int = 0
    spoofs_rejected: int = 0
    poisoned_acceptances: int = 0
    timeouts: int = 0


class StubResolver:
    """Client-side resolver speaking plain DNS to one recursive server.

    It rides its host's one :class:`~repro.netsim.transport.Transport`
    and a shared :func:`~repro.netsim.transport.retry_policy`; what it
    owns is its server, its TXID stream and its :class:`StubStats`.
    A population of clients with many servers each skips the object
    and calls :func:`stub_query` directly.

    :param host: the client machine.
    :param simulator: for timeouts.
    :param server: recursive resolver address (port 53 assumed).
    :param timeout: per-attempt timeout in seconds.
    :param retries: additional attempts after the first.
    :param rng: the TXID stream; without one the first query creates
        a ``random.Random(0)``.
    """

    def __init__(self, host: Host, simulator: Simulator,
                 server: IPAddress, timeout: float = 3.0,
                 retries: int = 1,
                 rng: Optional[random.Random] = None) -> None:
        self._server = Endpoint(IPAddress(server), DNS_PORT)
        self._policy = retry_policy(timeout, retries)
        self._transport = host.transport(simulator)
        self._txids = rng
        self._stats = StubStats()

    @property
    def stats(self) -> StubStats:
        return self._stats

    @property
    def server(self) -> Endpoint:
        return self._server

    def query(self, qname: "Name | str", qtype: RRType,
              callback: StubCallback) -> None:
        """Send an RD=1 query; invoke ``callback`` exactly once."""
        if self._txids is None:
            self._txids = random.Random(0)
        stub_query(self._transport, self._server, self._policy,
                   self._txids, self._stats, qname, qtype, callback)


def stub_query(transport: Transport, server: Endpoint, policy: RetryPolicy,
               txids, stats: StubStats, qname: "Name | str", qtype: RRType,
               callback: StubCallback) -> None:
    """Send one RD=1 query to ``server`` over ``transport``, drawing a
    TXID per attempt from ``txids``; ``callback`` fires exactly once.

    Counts land in ``stats`` and publish to the transport's registry
    and tracer.
    """
    qname = Name(qname)
    telemetry = transport.telemetry
    tracer = transport.tracer

    def build_request(txid: Optional[int]) -> bytes:
        stats.queries += 1
        if tracer is not None:
            # Runs under the attempt span's scope (the exchange
            # activates it around each attempt).
            tracer.event("dns.encode",
                         attrs={"qname": str(qname), "qtype": qtype.name})
        return make_query(txid, qname, qtype).encode()

    def classify(datagram: Datagram,
                 txid: Optional[int]) -> Optional[Message]:
        response = validate_reply(datagram, txid, server, qname, qtype)
        if response is None:
            stats.spoofs_rejected += 1
            if tracer is not None:
                tracer.event("dns.decode",
                             attrs={"qname": str(qname), "accepted": False})
            return None
        stats.responses += 1
        if tracer is not None:
            addresses = [str(record.rdata.address)  # type: ignore[attr-defined]
                         for record in response.answers
                         if record.rrtype in (RRType.A, RRType.AAAA)]
            decode = tracer.event(
                "dns.decode", attrs={"qname": str(qname),
                                     "accepted": True,
                                     "answers": addresses})
            if datagram.spoofed:
                decode.set(spoofed=True)
        if datagram.spoofed:
            stats.poisoned_acceptances += 1
            if telemetry is not None:
                telemetry.counter("dns.stub.poisoned").inc()
        return response

    def on_complete(exchange: PendingExchange) -> None:
        if telemetry is not None:
            # Per attempt, mirroring StubStats.queries.
            telemetry.counter("dns.stub.queries").inc(exchange.attempts)
            if exchange.rejected_replies:
                telemetry.counter("dns.stub.spoofs_rejected").inc(
                    exchange.rejected_replies)
        if exchange.timed_out:
            stats.timeouts += 1
            if telemetry is not None:
                telemetry.counter("dns.stub.timeouts").inc()
            callback(StubOutcome(response=None, timed_out=True,
                                 attempts=exchange.attempts))
            return
        if telemetry is not None:
            telemetry.counter("dns.stub.responses").inc()
        callback(StubOutcome(response=exchange.value,
                             attempts=exchange.attempts))

    transport.exchange(
        server, build_request=build_request, classify=classify,
        on_complete=on_complete, policy=policy, label="stub-query",
        txids=txids)
