"""Unified request/response transport over the simulated network.

Every client protocol in this repository (stub DNS, DoH, SNTP) is at
heart the same loop: send a request, wait with a timeout, maybe retry,
accept the first matching reply, ignore everything that arrives after
the decision. Before this module each client carried its own copy of
that loop; now :class:`Transport` owns it once.

One exchange is one object, and that object is also what its owner
reads when it finishes:

* :class:`PendingExchange` — the protocol-agnostic attempt supervisor.
  It owns the retry schedule (one timeout event per attempt, with
  optional exponential backoff from a :class:`RetryPolicy`), draws each
  attempt's transaction ID from the exchange's TXID stream, guarantees
  the completion callback fires exactly once, and records the
  exchange's outcome and metrics in its own fields (``value``,
  ``timed_out``, ``attempts``, ``rtt``, byte counts, ...).
  Connection-oriented flows (DoH over its TLS channel) get one from
  :meth:`Transport.supervise` and start each attempt themselves.
* :class:`DatagramExchange` — the subclass :meth:`Transport.exchange`
  builds. Each attempt closes the previous attempt's
  :class:`~repro.netsim.socket.UdpSocket`, binds a fresh ephemeral one
  and sends the request; a classifier filters inbound datagrams.
  Replies it rejects (wrong txid, unparsable, spoofed source) leave the
  exchange pending. Closing the socket is also what drops late and
  duplicated replies (the fabric counts them as ``no-socket``), so
  none reaches the owner twice — which is what makes link-level
  duplication (:class:`~repro.netsim.link.FaultModel`) safe for every
  protocol riding on the transport.

Determinism: the only randomness is the transaction-ID stream each
exchange is handed by its caller, so two runs with the same seeds
produce byte-identical wire traffic.

Sharing: a host has one :class:`Transport` (:meth:`Host.transport
<repro.netsim.host.Host.transport>`), which every protocol client on
the host rides. What differs between those clients' exchanges (the
destination, the :class:`RetryPolicy`, the TXID stream) is passed per
exchange, and policies are shared values: :func:`retry_policy` hands
out one per ``(timeout, retries)``.

Lifetime: a finished exchange holds no reference to its owner. On
completion or cancellation it cancels its pending timeout (a cancelled
:class:`~repro.netsim.simulator.Event` drops its callback, so the dead
heap entry pins nothing), closes its socket and drops the owner's
callbacks and its TXID stream. No reference cycle outlives the
exchange, and refcounting frees it the moment its owner lets go; the
cyclic garbage collector never has to find it. Exchanges accept weak
references, so tests can watch them die.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.netsim.address import Endpoint
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Event, Simulator
from repro.netsim.socket import UdpSocket
from repro.telemetry.registry import MetricsRegistry, current_registry
from repro.telemetry.trace import Span, Tracer, current_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.host import Host


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Timeout/retry schedule for one exchange.

    :param timeout: first attempt's timeout in seconds.
    :param retries: additional attempts after the first.
    :param backoff: multiplier applied to the timeout per retry
        (1.0 = the historical fixed-timeout behaviour of the clients).
    :param max_timeout: optional cap on the backed-off timeout.
    """

    timeout: float = 3.0
    retries: int = 0
    backoff: float = 1.0
    max_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1.0, got {self.backoff}")
        if self.max_timeout is not None and self.max_timeout < self.timeout:
            raise ValueError("max_timeout must be >= timeout")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def timeout_for(self, attempt: int) -> float:
        """Timeout of the ``attempt``-th attempt (1-based)."""
        if not 1 <= attempt <= self.max_attempts:
            raise ValueError(f"attempt must be in [1, {self.max_attempts}]")
        value = self.timeout * (self.backoff ** (attempt - 1))
        if self.max_timeout is not None:
            value = min(value, self.max_timeout)
        return value

    def total_budget(self) -> float:
        """Worst-case virtual time the whole exchange may take."""
        return sum(self.timeout_for(a) for a in range(1, self.max_attempts + 1))


@functools.lru_cache(maxsize=64)
def retry_policy(timeout: float, retries: int = 0) -> RetryPolicy:
    """The one fixed-timeout :class:`RetryPolicy` for ``(timeout,
    retries)``. Policies are frozen values, so every client with the
    same patience shares one instead of holding its own copy.

    >>> retry_policy(3.0, 1) is retry_policy(3.0, 1)
    True
    """
    return RetryPolicy(timeout=timeout, retries=retries)


#: Transaction IDs are 16-bit, drawn as ``txids.randrange(TXID_SPACE)``.
TXID_SPACE = 1 << 16

# A classifier sees (datagram, the attempt's txid) and returns the
# accepted value, or None to keep waiting (not ours / malformed /
# spoofed). The request builder sees the attempt's txid. Either txid is
# None when the exchange has no TXID stream.
ReplyClassifier = Callable[[Datagram, Optional[int]], Optional[Any]]
RequestBuilder = Callable[[Optional[int]], bytes]
CompletionCallback = Callable[["PendingExchange"], None]


class PendingExchange:
    """One supervised exchange: attempt scheduling, exactly-once finish,
    and the record its owner reads.

    Each attempt draws its transaction ID (when the exchange has a TXID
    stream), runs the attempt hook (``begin_attempt()`` for a
    supervised exchange) and arms the attempt's timeout. Whoever
    observes the response calls :meth:`resolve` with the terminal value;
    when every attempt times out the exchange finishes with
    ``timed_out=True``. Either way ``on_complete`` receives the exchange
    itself, once: :meth:`resolve` after the finish is ignored.
    """

    __slots__ = (
        # The record, complete once ``finished`` is set.
        "label", "value", "timed_out", "attempts", "started_at",
        "finished_at", "rtt", "bytes_sent", "bytes_received",
        "rejected_replies", "finished",
        # The open span of the in-flight attempt (None untraced): reply
        # handlers re-activate it so decode spans parent there.
        "attempt_span",
        "_transport", "_simulator", "_tracer", "_policy", "_begin_attempt",
        "_on_complete", "_txids", "_timeout", "_attempt_started_at",
        "_span", "__weakref__")

    def __init__(self, transport: "Transport", policy: RetryPolicy,
                 on_complete: CompletionCallback, label: str,
                 begin_attempt: Optional[Callable[[], None]] = None,
                 txids: Optional[random.Random] = None) -> None:
        self.label = label
        self.value: Any = None              # what the classifier accepted
        self.timed_out = False
        self.attempts = 0
        self.started_at = 0.0
        self.finished_at = 0.0
        self.rtt: Optional[float] = None    # last attempt's send → accept
        self.bytes_sent = 0
        self.bytes_received = 0
        self.rejected_replies = 0           # not-ours while pending
        self.finished = False
        self.attempt_span: Optional[Span] = None
        self._transport = transport
        self._simulator = transport._simulator
        self._tracer: Optional[Tracer] = transport._tracer
        self._policy = policy
        self._begin_attempt = begin_attempt
        self._on_complete = on_complete
        self._txids = txids
        self._timeout: Optional[Event] = None
        self._attempt_started_at = 0.0
        self._span: Optional[Span] = None

    @property
    def elapsed(self) -> float:
        """Whole-exchange virtual duration (all attempts)."""
        return self.finished_at - self.started_at

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "PendingExchange":
        """Launch the first attempt; returns self for chaining."""
        self.started_at = self._simulator.now
        if self._tracer is not None:
            self._span = self._tracer.begin(
                "transport.exchange", attrs={"label": self.label})
        self._start_attempt()
        return self

    def resolve(self, value: Any) -> None:
        """Deliver the exchange's terminal value (the first call wins;
        later calls are ignored)."""
        if self.finished:
            return
        self.value = value
        self.rtt = self._simulator.now - self._attempt_started_at
        if self.attempt_span is not None:
            self._tracer.finish(self.attempt_span.set(outcome="accepted"))
            self.attempt_span = None
        self._finish()

    def cancel(self) -> None:
        """Abandon the exchange silently: no completion callback, no
        metrics. Its socket, if any, is released at once."""
        if self.finished:
            return
        self.finished = True
        if self.attempt_span is not None:
            self._tracer.finish(self.attempt_span.set(outcome="cancelled"))
            self.attempt_span = None
        if self._span is not None:
            self._tracer.finish(self._span.set(outcome="cancelled"))
            self._span = None
        self._release()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _start_attempt(self) -> None:
        attempt = self.attempts = self.attempts + 1
        self._attempt_started_at = self._simulator.now
        txids = self._txids
        txid = None if txids is None else txids.randrange(TXID_SPACE)
        tracer = self._tracer
        if tracer is None:
            self._attempt(txid)
        else:
            attrs = {"attempt": attempt}
            if txid is not None:
                attrs["txid"] = txid
            self.attempt_span = tracer.begin(
                "transport.attempt", parent=self._span, attrs=attrs)
            # The attempt's sends parent under its span.
            with tracer.scope(self.attempt_span):
                self._attempt(txid)
        if not self.finished:
            self._timeout = self._simulator.schedule_after(
                self._policy.timeout_for(attempt), self._on_timeout)

    def _attempt(self, txid: Optional[int]) -> None:
        """Start one attempt (the owner's hook; a supervised exchange
        never draws a txid)."""
        self._begin_attempt()

    def _on_timeout(self) -> None:
        self._timeout = None
        if self.attempt_span is not None:
            self._tracer.finish(self.attempt_span.set(outcome="timeout"))
            self.attempt_span = None
        if self.attempts < self._policy.max_attempts:
            self._start_attempt()
            return
        self.timed_out = True
        self._finish()

    def _finish(self) -> None:
        self.finished = True
        self.finished_at = self._simulator.now
        span = self._span
        if span is not None:
            span.set(attempts=self.attempts, timed_out=self.timed_out)
            if self.timed_out:
                # Every attempt the policy allowed has timed out: the
                # exchange gave up for good, which is the signal chaos
                # experiments grep traces for (distinct from a single
                # attempt timing out and a retry succeeding).
                span.set(gave_up=True)
            if self.rtt is not None:
                span.set(rtt=self.rtt)
            self._tracer.finish(span)
        on_complete = self._on_complete
        self._release()
        transport = self._transport
        if transport._telemetry is not None:
            transport._publish(self)
        on_complete(self)

    def _release(self) -> None:
        """Cancel the pending timeout (whose callback is our own
        ``_on_timeout``) and drop every reference back into the owner,
        so a finished exchange is freed by refcounting alone."""
        if self._timeout is not None:
            self._timeout.cancel()
            self._timeout = None
        self._begin_attempt = None
        self._on_complete = None
        self._txids = None


class DatagramExchange(PendingExchange):
    """One datagram request/response exchange (created by
    :meth:`Transport.exchange`; not instantiated directly).

    Per attempt it closes the previous attempt's socket, binds a fresh
    ephemeral one, builds the request with the attempt's txid and sends
    it; the classifier filters inbound datagrams. Closing the
    per-attempt socket is also what drops late and duplicated replies:
    once the exchange finishes (or retries onto a new port) the old
    port is unbound and the network drops stragglers, exactly as a real
    stack would.
    """

    __slots__ = ("_destination", "_build_request", "_classify", "_socket",
                 "_txid")

    def __init__(self, transport: "Transport", destination: Endpoint,
                 build_request: RequestBuilder, classify: ReplyClassifier,
                 on_complete: CompletionCallback, policy: RetryPolicy,
                 label: str, txids: Optional[random.Random]) -> None:
        super().__init__(transport, policy, on_complete, label, txids=txids)
        self._destination = destination
        self._build_request = build_request
        self._classify = classify
        self._socket: Optional[UdpSocket] = None
        self._txid: Optional[int] = None

    def start(self) -> "DatagramExchange":
        super().start()
        if self._span is not None:
            self._span.set(dest=str(self._destination))
        return self

    def _attempt(self, txid: Optional[int]) -> None:
        self._txid = txid
        if self._socket is not None:
            self._socket.close()
        socket = self._socket = self._transport._host.ephemeral_socket(
            self._on_datagram)
        payload = self._build_request(txid)
        self.bytes_sent += len(payload)
        socket.sendto(self._destination, payload)

    def _on_datagram(self, datagram: Datagram) -> None:
        self.bytes_received += datagram.size
        attempt_span = self.attempt_span
        if attempt_span is not None:
            # Delivery arrives through a simulator callback hop, so the
            # attempt's trace context is re-activated here: decode
            # spans emitted by the classifier parent under the attempt.
            with self._tracer.scope(attempt_span):
                value = self._classify(datagram, self._txid)
        else:
            value = self._classify(datagram, self._txid)
        if value is None:
            self.rejected_replies += 1
            return
        self.resolve(value)

    def _release(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None
        self._build_request = None
        self._classify = None
        super()._release()


class Transport:
    """Request/response engine bound to one host.

    A host has one, shared by every protocol client on it; build it
    with :meth:`Host.transport <repro.netsim.host.Host.transport>`.

    :param host: the machine exchanges originate from.
    :param simulator: virtual-time engine for timeouts and metrics.
    """

    def __init__(self, host: "Host", simulator: Simulator) -> None:
        self._host = host
        self._simulator = simulator
        # Captured once at construction: with no registry installed the
        # per-exchange publish below is skipped entirely; likewise with
        # no tracer installed no exchange/attempt spans are allocated.
        self._telemetry = current_registry()
        self._tracer = current_tracer()

    @property
    def telemetry(self) -> Optional[MetricsRegistry]:
        """The registry captured at construction (``None`` = none)."""
        return self._telemetry

    @property
    def tracer(self) -> Optional[Tracer]:
        """The tracer captured at construction (``None`` = untraced)."""
        return self._tracer

    # ------------------------------------------------------------------
    # The two entry points.
    # ------------------------------------------------------------------

    def exchange(self, destination: Endpoint, *,
                 build_request: RequestBuilder,
                 classify: ReplyClassifier,
                 on_complete: CompletionCallback,
                 policy: RetryPolicy,
                 label: str = "exchange",
                 txids: Optional[random.Random] = None) -> DatagramExchange:
        """Run a datagram request/response exchange; ``on_complete``
        fires exactly once with the finished exchange.

        ``txids`` is the stream each attempt draws its transaction ID
        from (``txids.randrange(TXID_SPACE)``, one draw per attempt);
        without one the attempts carry none (NTP identifies its
        transaction by the origin timestamp, the recursive resolver
        draws its own)."""
        return DatagramExchange(self, destination, build_request, classify,
                                on_complete, policy, label, txids).start()

    def supervise(self, *, begin_attempt: Callable[[], None],
                  on_complete: CompletionCallback,
                  policy: RetryPolicy,
                  label: str = "supervised") -> PendingExchange:
        """Attempt supervision without the datagram layer, for flows
        that own their channel (DoH's per-query TLS connection). The
        caller starts its attempt in ``begin_attempt`` and reports the
        terminal value through :meth:`PendingExchange.resolve`."""
        return PendingExchange(self, policy, on_complete, label,
                               begin_attempt).start()

    def _publish(self, exchange: PendingExchange) -> None:
        """One completed exchange's metrics, keyed by exchange label."""
        label = exchange.label
        counter = self._telemetry.counter
        counter("transport.exchanges", label=label).inc()
        counter("transport.attempts", label=label).inc(exchange.attempts)
        if exchange.timed_out:
            counter("transport.timeouts", label=label).inc()
            # Retry exhaustion, named explicitly: the whole policy
            # budget (first attempt plus every retry) timed out and the
            # caller got nothing. Availability dashboards key on this
            # rather than inferring it from timeouts vs attempts.
            counter("transport.exhausted", label=label).inc()
        elif exchange.rtt is not None:
            self._telemetry.histogram(
                "transport.rtt", label=label).observe(exchange.rtt)
        if exchange.bytes_sent:
            counter("transport.bytes_sent",
                    label=label).inc(exchange.bytes_sent)
        if exchange.bytes_received:
            counter("transport.bytes_received",
                    label=label).inc(exchange.bytes_received)
        if exchange.rejected_replies:
            counter("transport.rejected_replies",
                    label=label).inc(exchange.rejected_replies)
