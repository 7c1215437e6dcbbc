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
    AttemptInfo,
    ExchangeReport,
    RetryPolicy,
    Transport,
)
from repro.telemetry.registry import current_registry
from repro.telemetry.trace import current_tracer

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

    :param host: the client machine.
    :param simulator: for timeouts.
    :param server: recursive resolver address (port 53 assumed).
    :param timeout: per-attempt timeout in seconds.
    :param retries: additional attempts after the first.
    """

    def __init__(self, host: Host, simulator: Simulator,
                 server: IPAddress, timeout: float = 3.0,
                 retries: int = 1,
                 rng: Optional[random.Random] = None) -> None:
        self._host = host
        self._simulator = simulator
        self._server = Endpoint(IPAddress(server), DNS_PORT)
        self._policy = RetryPolicy(timeout=timeout, retries=retries)
        self._transport = Transport(host, simulator, rng=rng)
        self._stats = StubStats()
        self._telemetry = current_registry()
        self._tracer = current_tracer()

    @property
    def stats(self) -> StubStats:
        return self._stats

    @property
    def server(self) -> Endpoint:
        return self._server

    def query(self, qname: "Name | str", qtype: RRType,
              callback: StubCallback) -> None:
        """Send an RD=1 query; invoke ``callback`` exactly once."""
        qname = Name(qname)

        def build_request(attempt: AttemptInfo) -> bytes:
            self._stats.queries += 1
            if self._tracer is not None:
                # Runs under the attempt span's scope (the transport
                # activates it around begin_attempt).
                self._tracer.event("dns.encode",
                                   attrs={"qname": str(qname),
                                          "qtype": qtype.name})
            return make_query(attempt.txid, qname, qtype).encode()

        def classify(datagram: Datagram,
                     attempt: AttemptInfo) -> Optional[Message]:
            response = validate_reply(datagram, attempt.txid, self._server,
                                      qname, qtype)
            if response is None:
                self._stats.spoofs_rejected += 1
                if self._tracer is not None:
                    self._tracer.event("dns.decode",
                                       attrs={"qname": str(qname),
                                              "accepted": False})
                return None
            self._stats.responses += 1
            if self._tracer is not None:
                addresses = [str(record.rdata.address)  # type: ignore[attr-defined]
                             for record in response.answers
                             if record.rrtype in (RRType.A, RRType.AAAA)]
                decode = self._tracer.event(
                    "dns.decode", attrs={"qname": str(qname),
                                         "accepted": True,
                                         "answers": addresses})
                if datagram.spoofed:
                    decode.set(spoofed=True)
            if datagram.spoofed:
                self._stats.poisoned_acceptances += 1
                if self._telemetry is not None:
                    self._telemetry.counter("dns.stub.poisoned").inc()
            return response

        def on_complete(report: ExchangeReport) -> None:
            if self._telemetry is not None:
                # Per attempt, mirroring StubStats.queries.
                self._telemetry.counter("dns.stub.queries").inc(
                    report.attempts)
                if report.rejected_replies:
                    self._telemetry.counter("dns.stub.spoofs_rejected").inc(
                        report.rejected_replies)
            if report.timed_out:
                self._stats.timeouts += 1
                if self._telemetry is not None:
                    self._telemetry.counter("dns.stub.timeouts").inc()
                callback(StubOutcome(response=None, timed_out=True,
                                     attempts=report.attempts))
                return
            if self._telemetry is not None:
                self._telemetry.counter("dns.stub.responses").inc()
            callback(StubOutcome(response=report.value,
                                 attempts=report.attempts))

        self._transport.exchange(
            self._server, build_request=build_request, classify=classify,
            on_complete=on_complete, policy=self._policy, label="stub-query")
