"""DoH client: one secure query to one provider.

Each query opens a fresh TLS connection (handshake is one round trip in
the simulation), sends the RFC 8484 request, and reports a structured
:class:`DoHQueryOutcome`. Validation mirrors a careful client: the
response must parse, be a response, and echo the question — plus all the
TLS-layer guarantees (certificate verification, record MACs) enforced by
:mod:`repro.doh.tls`.

Timeout/retry supervision rides on
:meth:`repro.netsim.transport.Transport.supervise` — the query owns its
TLS channel, the transport owns the attempt schedule.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.dns.message import Message, make_query
from repro.dns.name import Name
from repro.dns.rrtype import RRType
from repro.dns.wire import WireFormatError
from repro.doh.encoding import b64url_encode
from repro.doh.http import HttpRequest, HttpResponse
from repro.doh.server import DNS_MESSAGE_TYPE, DOH_PATH
from repro.doh.tls import TlsClientConnection, TrustStore
from repro.netsim.address import Endpoint
from repro.netsim.host import Host
from repro.netsim.simulator import Simulator
from repro.netsim.transport import TXID_SPACE, PendingExchange, retry_policy


class DoHStatus(enum.Enum):
    """Terminal states of a DoH query."""

    OK = "ok"
    TLS_FAILURE = "tls-failure"
    HTTP_ERROR = "http-error"
    BAD_RESPONSE = "bad-response"
    TIMEOUT = "timeout"


@dataclass
class DoHQueryOutcome:
    """Result of one DoH query."""

    status: DoHStatus
    message: Optional[Message] = None
    http_status: Optional[int] = None
    failure_reason: Optional[str] = None
    latency: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status is DoHStatus.OK


DoHCallback = Callable[[DoHQueryOutcome], None]


@dataclass
class DoHClientStats:
    queries: int = 0
    successes: int = 0
    tls_failures: int = 0
    timeouts: int = 0
    bad_responses: int = 0


class DoHClient:
    """Client for RFC 8484 queries from a simulated host.

    :param host: the client machine.
    :param simulator: virtual-time engine (timeouts, latency metrics).
    :param trust_store: CAs trusted for provider certificates.
    :param rng: randomness for TXIDs and ephemeral DH keys.
    :param method: "GET" (base64url) or "POST" (binary body).
    :param timeout: per-attempt timeout in seconds.
    :param retries: additional attempts after a timeout, each over a
        fresh connection. Real DoH rides on TCP/QUIC whose transport
        retransmits lost segments; our datagram-framed channel models
        that recovery at the query level instead.
    """

    def __init__(self, host: Host, simulator: Simulator,
                 trust_store: TrustStore, rng: Optional[random.Random] = None,
                 method: str = "GET", timeout: float = 4.0,
                 retries: int = 2) -> None:
        if method not in ("GET", "POST"):
            raise ValueError(f"method must be GET or POST, got {method!r}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._host = host
        self._simulator = simulator
        self._trust_store = trust_store
        self._rng = rng or random.Random(0)
        self._method = method
        self._policy = retry_policy(timeout, retries)
        self._transport = host.transport(simulator)
        self._stats = DoHClientStats()
        self._telemetry = self._transport.telemetry
        self._tracer = self._transport.tracer

    @property
    def stats(self) -> DoHClientStats:
        return self._stats

    def query(self, server: Endpoint, server_name: str,
              qname: "Name | str", qtype: RRType,
              callback: DoHCallback) -> None:
        """Issue one DoH query; ``callback`` fires exactly once."""
        txid = self._rng.randrange(TXID_SPACE)
        message = make_query(txid, Name(qname), qtype)
        _DoHQuery(self, server, server_name, message, callback).start()


class _DoHQuery:
    """One in-flight DoH query, one fresh TLS connection per attempt."""

    def __init__(self, client: DoHClient, server: Endpoint, server_name: str,
                 query: Message, callback: DoHCallback) -> None:
        self._client = client
        self._server = server
        self._server_name = server_name
        self._query = query
        self._callback = callback
        # Set per attempt; dropped once the query completes, so neither
        # side of the query <-> connection pair pins the other.
        self._connection: Optional[TlsClientConnection] = None
        self._exchange = None  # set in start()

    def start(self) -> None:
        self._client._stats.queries += 1
        self._exchange = self._client._transport.supervise(
            begin_attempt=self._open_connection,
            on_complete=self._on_exchange_complete,
            policy=self._client._policy, label="doh-query")

    @property
    def _finished(self) -> bool:
        return self._exchange is not None and self._exchange.finished

    def _open_connection(self) -> None:
        """Open (or reopen, on retry) a fresh TLS connection."""
        if self._connection is not None:
            self._connection.close()
        self._connection = TlsClientConnection(
            self._client._host, self._server, self._server_name,
            self._client._trust_store, self._client._rng)
        self._connection.on_established(self._send_request)
        self._connection.on_data(self._on_response_bytes)
        self._connection.on_failure(self._on_tls_failure)
        self._connection.connect()

    def _send_request(self) -> None:
        tracer = self._client._tracer
        if tracer is not None:
            # The TLS handshake completion arrives through a simulator
            # callback hop; re-activate the attempt span so the encode
            # event (and the request's flight) parent under it.
            with tracer.scope(self._exchange.attempt_span):
                tracer.event(
                    "doh.encode",
                    attrs={"qname": str(self._query.question.qname),
                           "server": self._server_name})
                self._send_request_untraced()
            return
        self._send_request_untraced()

    def _send_request_untraced(self) -> None:
        wire = self._query.encode()
        if self._client._method == "GET":
            request = HttpRequest(
                method="GET",
                target=f"{DOH_PATH}?dns={b64url_encode(wire)}",
                headers={"Accept": DNS_MESSAGE_TYPE},
            )
        else:
            request = HttpRequest(
                method="POST",
                target=DOH_PATH,
                headers={"Accept": DNS_MESSAGE_TYPE,
                         "Content-Type": DNS_MESSAGE_TYPE},
                body=wire,
            )
        self._connection.send(request.encode())

    def _on_response_bytes(self, data: bytes) -> None:
        if self._finished:
            return
        tracer = self._client._tracer
        if tracer is not None:
            # Response bytes also arrive through a callback hop; the
            # decode events below must parent under the live attempt.
            with tracer.scope(self._exchange.attempt_span):
                self._decode_response(data)
            return
        self._decode_response(data)

    def _decode_response(self, data: bytes) -> None:
        tracer = self._client._tracer
        try:
            response = HttpResponse.decode(data)
        except ValueError:
            self._client._stats.bad_responses += 1
            self._finish(DoHQueryOutcome(DoHStatus.BAD_RESPONSE,
                                         failure_reason="unparseable HTTP"))
            return
        if not response.ok:
            self._finish(DoHQueryOutcome(DoHStatus.HTTP_ERROR,
                                         http_status=response.status))
            return
        if response.header("content-type") != DNS_MESSAGE_TYPE:
            self._client._stats.bad_responses += 1
            self._finish(DoHQueryOutcome(DoHStatus.BAD_RESPONSE,
                                         http_status=response.status,
                                         failure_reason="wrong content type"))
            return
        try:
            message = Message.decode(response.body)
        except WireFormatError:
            self._client._stats.bad_responses += 1
            self._finish(DoHQueryOutcome(DoHStatus.BAD_RESPONSE,
                                         http_status=response.status,
                                         failure_reason="unparseable DNS"))
            return
        question_ok = (
            message.is_response
            and len(message.questions) == 1
            and message.questions[0].qname == self._query.question.qname
            and message.questions[0].qtype == self._query.question.qtype
        )
        if not question_ok:
            self._client._stats.bad_responses += 1
            if tracer is not None:
                tracer.event("doh.decode",
                             attrs={"accepted": False,
                                    "reason": "question mismatch"})
            self._finish(DoHQueryOutcome(DoHStatus.BAD_RESPONSE,
                                         http_status=response.status,
                                         failure_reason="question mismatch"))
            return
        self._client._stats.successes += 1
        if tracer is not None:
            answers = [str(record.rdata.address)  # type: ignore[attr-defined]
                       for record in message.answers
                       if record.rrtype in (RRType.A, RRType.AAAA)]
            tracer.event("doh.decode",
                         attrs={"accepted": True,
                                "qname": str(self._query.question.qname),
                                "answers": answers})
        self._finish(DoHQueryOutcome(DoHStatus.OK, message=message,
                                     http_status=response.status))

    def _on_tls_failure(self, reason: str) -> None:
        if self._finished:
            return
        self._client._stats.tls_failures += 1
        self._finish(DoHQueryOutcome(DoHStatus.TLS_FAILURE,
                                     failure_reason=reason))

    def _finish(self, outcome: DoHQueryOutcome) -> None:
        """Hand the terminal outcome to the exchange (the first call
        wins; anything arriving after it is ignored)."""
        self._exchange.resolve(outcome)

    def _on_exchange_complete(self, exchange: PendingExchange) -> None:
        outcome = exchange.value
        if exchange.timed_out:
            self._client._stats.timeouts += 1
            outcome = DoHQueryOutcome(DoHStatus.TIMEOUT)
        outcome.latency = exchange.elapsed
        telemetry = self._client._telemetry
        if telemetry is not None:
            telemetry.counter("doh.queries").inc()
            telemetry.counter("doh.outcomes",
                              status=outcome.status.value).inc()
            if outcome.ok:
                telemetry.histogram("doh.latency").observe(outcome.latency)
        self._connection.close()
        self._connection = None
        self._callback(outcome)
