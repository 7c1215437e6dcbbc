"""Unified request/response transport over the simulated network.

Every client protocol in this repository (stub DNS, DoH, SNTP) is at
heart the same loop: send a request, wait with a timeout, maybe retry,
accept the first matching reply, suppress everything that arrives after
the decision. Before this module each client carried its own copy of
that loop; now :class:`Transport` owns it once.

Two layers are exposed:

* :class:`PendingExchange` — the protocol-agnostic attempt supervisor.
  It owns the retry schedule (per-attempt timeouts with optional
  exponential backoff from a :class:`RetryPolicy`), guarantees the
  completion callback fires exactly once, and records per-exchange
  metrics. Connection-oriented flows (DoH over its TLS channel) use it
  directly via :meth:`Transport.supervise`.
* :meth:`Transport.exchange` — the datagram layer on top: one ephemeral
  :class:`~repro.netsim.socket.UdpSocket` per attempt, RNG-derived
  transaction IDs, byte accounting, and reply classification. Replies
  the classifier rejects (wrong txid, unparsable, spoofed source) leave
  the exchange pending; replies after completion are suppressed and
  counted, never delivered twice — which is what makes link-level
  duplication (:class:`~repro.netsim.link.FaultModel`) safe for every
  protocol riding on the transport.

Determinism: the only randomness is the transaction-ID stream handed in
by the caller, so two runs with the same seeds produce byte-identical
wire traffic.

Lifetime: a finished exchange holds no reference to its owner. On
completion or cancellation :class:`PendingExchange` drops its owner
callbacks (``begin_attempt``, ``on_complete``, ``on_cancel``, the txid
source) and its :class:`~repro.netsim.simulator.Timer`, and a cancelled
:class:`~repro.netsim.simulator.Event` drops its callback, so no
reference cycle outlives the exchange and refcounting frees it (with
its closures, messages and report) the moment its owner lets go. The
cyclic garbage collector never has to find it. Both exchange types (and
``Timer``) accept weak references, so tests can watch them die.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.netsim.address import Endpoint
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator, Timer
from repro.netsim.socket import UdpSocket
from repro.telemetry.registry import current_registry
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


@dataclass(frozen=True, slots=True)
class AttemptInfo:
    """Identity of one attempt, handed to the request builder."""

    index: int                      # 1-based attempt number
    txid: Optional[int] = None      # transaction ID, when the transport
    #                                 draws one for this exchange


@dataclass(slots=True)
class ExchangeReport:
    """Everything one finished exchange can tell its owner."""

    value: Any = None               # what the classifier accepted
    timed_out: bool = False
    attempts: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    rtt: Optional[float] = None     # last attempt's send → accept delay
    bytes_sent: int = 0
    bytes_received: int = 0
    rejected_replies: int = 0       # classified as not-ours while pending
    suppressed_replies: int = 0     # duplicates / late arrivals after done

    @property
    def elapsed(self) -> float:
        """Whole-exchange virtual duration (all attempts)."""
        return self.finished_at - self.started_at


class PendingExchange:
    """One supervised exchange: attempt scheduling + exactly-once finish.

    ``begin_attempt`` is called once per attempt (1-based
    :class:`AttemptInfo`); the supervisor then arms the attempt's
    timeout. Whoever observes the response calls :meth:`resolve` with
    the terminal value; when every attempt times out the report is
    delivered with ``timed_out=True``. ``resolve`` after completion is
    suppressed (and counted), never delivered twice.
    """

    __slots__ = ("_simulator", "_policy", "_begin_attempt", "_on_complete",
                 "_label", "_next_txid", "_on_cancel", "_report",
                 "_finished", "_attempt_started_at", "_timer",
                 "_tracer", "_span", "_attempt_span", "__weakref__")

    def __init__(self, simulator: Simulator, policy: RetryPolicy,
                 begin_attempt: Callable[[AttemptInfo], None],
                 on_complete: Callable[[ExchangeReport], None],
                 label: str = "exchange",
                 next_txid: Optional[Callable[[], int]] = None,
                 on_cancel: Optional[Callable[[], None]] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self._simulator = simulator
        self._policy = policy
        self._begin_attempt = begin_attempt
        self._on_complete = on_complete
        self._label = label
        self._next_txid = next_txid
        self._on_cancel = on_cancel
        self._report = ExchangeReport()
        self._finished = False
        self._attempt_started_at = 0.0
        self._timer = Timer(simulator, self._on_timeout, label=label)
        # The exchange and current-attempt spans. The attempt span is
        # re-activated explicitly whenever control re-enters through a
        # simulator callback hop (timeout firing, reply delivery), so
        # children recorded there still parent under the right attempt.
        self._tracer = tracer
        self._span: Optional[Span] = None
        self._attempt_span: Optional[Span] = None

    # ------------------------------------------------------------------
    # State.
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def attempts(self) -> int:
        return self._report.attempts

    @property
    def report(self) -> ExchangeReport:
        return self._report

    @property
    def attempt_span(self) -> Optional[Span]:
        """The open span of the in-flight attempt (``None`` untraced) —
        reply handlers re-activate it so decode spans parent here."""
        return self._attempt_span

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "PendingExchange":
        """Launch the first attempt; returns self for chaining."""
        self._report.started_at = self._simulator.now
        if self._tracer is not None:
            self._span = self._tracer.begin(
                "transport.exchange", attrs={"label": self._label})
        self._start_attempt()
        return self

    def resolve(self, value: Any) -> None:
        """Deliver the exchange's terminal value (first call wins)."""
        if self._finished:
            self._report.suppressed_replies += 1
            return
        self._report.value = value
        self._report.rtt = self._simulator.now - self._attempt_started_at
        if self._attempt_span is not None:
            self._tracer.finish(self._attempt_span.set(outcome="accepted"))
            self._attempt_span = None
        self._finish()

    def cancel(self) -> None:
        """Abandon the exchange silently (no completion callback).

        Owner resources (the datagram layer's per-attempt socket) are
        released through the ``on_cancel`` hook.
        """
        if self._finished:
            return
        self._finished = True
        self._timer.cancel()
        if self._attempt_span is not None:
            self._tracer.finish(self._attempt_span.set(outcome="cancelled"))
            self._attempt_span = None
        if self._span is not None:
            self._tracer.finish(self._span.set(outcome="cancelled"))
            self._span = None
        on_cancel = self._on_cancel
        self._release()
        if on_cancel is not None:
            on_cancel()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _start_attempt(self) -> None:
        attempt_index = self._report.attempts + 1
        self._report.attempts = attempt_index
        self._attempt_started_at = self._simulator.now
        txid = self._next_txid() if self._next_txid is not None else None
        attempt = AttemptInfo(index=attempt_index, txid=txid)
        tracer = self._tracer
        if tracer is None:
            self._begin_attempt(attempt)
        else:
            attrs = {"attempt": attempt_index}
            if txid is not None:
                attrs["txid"] = txid
            self._attempt_span = tracer.begin(
                "transport.attempt", parent=self._span, attrs=attrs)
            with tracer.scope(self._attempt_span):
                self._begin_attempt(attempt)
        if not self._finished:
            self._timer.start(self._policy.timeout_for(attempt_index))

    def _on_timeout(self) -> None:
        if self._finished:
            return
        if self._attempt_span is not None:
            self._tracer.finish(self._attempt_span.set(outcome="timeout"))
            self._attempt_span = None
        if self._report.attempts < self._policy.max_attempts:
            self._start_attempt()
            return
        self._report.timed_out = True
        self._finish()

    def _finish(self) -> None:
        self._finished = True
        self._report.finished_at = self._simulator.now
        self._timer.cancel()
        if self._span is not None:
            report = self._report
            self._span.set(attempts=report.attempts,
                           timed_out=report.timed_out)
            if report.timed_out:
                # Every attempt the policy allowed has timed out: the
                # exchange gave up for good, which is the signal chaos
                # experiments grep traces for (distinct from a single
                # attempt timing out and a retry succeeding).
                self._span.set(gave_up=True)
            if report.rtt is not None:
                self._span.set(rtt=report.rtt)
            self._tracer.finish(self._span)
        on_complete = self._on_complete
        self._release()
        on_complete(self._report)

    def _release(self) -> None:
        """Drop every reference back into the owner (its bound methods)
        and the timer (whose callback is our own ``_on_timeout``), so a
        finished exchange is freed by refcounting alone."""
        self._begin_attempt = None
        self._on_complete = None
        self._on_cancel = None
        self._next_txid = None
        self._timer = None


# A classifier sees (datagram, attempt) and returns the accepted value,
# or None to keep waiting (not ours / malformed / spoofed).
ReplyClassifier = Callable[[Datagram, AttemptInfo], Optional[Any]]
RequestBuilder = Callable[[AttemptInfo], bytes]
CompletionCallback = Callable[[ExchangeReport], None]


class DatagramExchange:
    """One datagram request/response exchange (created by
    :meth:`Transport.exchange`; not instantiated directly).

    Per attempt it closes the previous attempt's socket, binds a fresh
    ephemeral one, builds the request (with a fresh transaction ID when
    the transport draws them) and sends it; the classifier filters
    inbound datagrams. Closing the per-attempt socket is also what
    suppresses late and duplicated replies: once the exchange finishes
    (or retries onto a new port) the old port is unbound and the
    network drops stragglers, exactly as a real stack would.
    """

    __slots__ = ("_transport", "_destination", "_build_request", "_classify",
                 "_on_complete", "_socket", "_attempt", "_pending",
                 "__weakref__")

    def __init__(self, transport: "Transport", destination: Endpoint,
                 build_request: RequestBuilder, classify: ReplyClassifier,
                 on_complete: CompletionCallback, policy: RetryPolicy,
                 label: str, want_txid: bool) -> None:
        self._transport = transport
        self._destination = destination
        self._build_request = build_request
        self._classify = classify
        self._on_complete = on_complete
        self._socket: Optional[UdpSocket] = None
        self._attempt = AttemptInfo(index=0)
        self._pending = PendingExchange(
            transport.simulator, policy, self._begin_attempt, self._finish,
            label=label,
            next_txid=transport.draw_txid if want_txid else None,
            on_cancel=self._close_socket,
            tracer=transport.tracer)

    @property
    def pending(self) -> PendingExchange:
        return self._pending

    @property
    def report(self) -> ExchangeReport:
        return self._pending.report

    def start(self) -> "DatagramExchange":
        self._pending.start()
        span = self._pending._span
        if span is not None:
            span.set(dest=str(self._destination))
        return self

    # ------------------------------------------------------------------
    # Attempt plumbing.
    # ------------------------------------------------------------------

    def _begin_attempt(self, attempt: AttemptInfo) -> None:
        self._attempt = attempt
        self._close_socket()
        self._socket = self._transport.host.ephemeral_socket(self._on_datagram)
        payload = self._build_request(attempt)
        self._pending.report.bytes_sent += len(payload)
        self._socket.sendto(self._destination, payload)

    def _on_datagram(self, datagram: Datagram) -> None:
        report = self._pending.report
        if self._pending.finished:
            report.suppressed_replies += 1
            return
        report.bytes_received += datagram.size
        # Delivery arrives through a simulator callback hop, so the
        # attempt's trace context is re-activated here: decode spans
        # emitted by the classifier parent under the attempt.
        tracer = self._transport.tracer
        attempt_span = self._pending.attempt_span
        if tracer is not None and attempt_span is not None:
            with tracer.scope(attempt_span):
                value = self._classify(datagram, self._attempt)
        else:
            value = self._classify(datagram, self._attempt)
        if value is None:
            report.rejected_replies += 1
            return
        self._pending.resolve(value)

    def _finish(self, report: ExchangeReport) -> None:
        self._close_socket()
        self._on_complete(report)

    def _close_socket(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None


class Transport:
    """Request/response engine bound to one host.

    :param host: the machine exchanges originate from.
    :param simulator: virtual-time engine for timeouts and metrics.
    :param rng: stream for transaction IDs (one draw per attempt),
        stored as given. Without one, the first :meth:`draw_txid`
        creates a ``random.Random(0)``; callers that identify
        transactions some other way (NTP uses the origin timestamp)
        never draw, and so never own a generator.
    :param txid_bits: width of the transaction-ID space.
    """

    def __init__(self, host: "Host", simulator: Simulator,
                 rng: Optional[random.Random] = None,
                 txid_bits: int = 16) -> None:
        if txid_bits < 1:
            raise ValueError(f"txid_bits must be >= 1, got {txid_bits}")
        self._host = host
        self._simulator = simulator
        self._rng = rng
        self._txid_bits = txid_bits
        self._exchanges_started = 0
        self._exchanges_timed_out = 0
        # Captured once at construction: with no registry installed the
        # per-exchange publish below is skipped entirely; likewise with
        # no tracer installed no exchange/attempt spans are allocated.
        self._telemetry = current_registry()
        self._tracer = current_tracer()

    @property
    def host(self) -> "Host":
        return self._host

    @property
    def simulator(self) -> Simulator:
        return self._simulator

    @property
    def tracer(self) -> Optional[Tracer]:
        """The tracer captured at construction (``None`` = untraced)."""
        return self._tracer

    @property
    def exchanges_started(self) -> int:
        return self._exchanges_started

    @property
    def exchanges_timed_out(self) -> int:
        return self._exchanges_timed_out

    def draw_txid(self) -> int:
        """Draw one transaction ID from the transport's RNG stream."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(0)
        return rng.randrange(1 << self._txid_bits)

    # ------------------------------------------------------------------
    # The two entry points.
    # ------------------------------------------------------------------

    def exchange(self, destination: Endpoint, *,
                 build_request: RequestBuilder,
                 classify: ReplyClassifier,
                 on_complete: CompletionCallback,
                 policy: RetryPolicy,
                 label: str = "exchange",
                 want_txid: bool = True) -> DatagramExchange:
        """Run a datagram request/response exchange; ``on_complete``
        fires exactly once with the :class:`ExchangeReport`."""
        self._exchanges_started += 1
        exchange = DatagramExchange(
            self, destination, build_request, classify,
            self._finalize(on_complete, label), policy, label, want_txid)
        return exchange.start()

    def supervise(self, *, begin_attempt: Callable[[AttemptInfo], None],
                  on_complete: CompletionCallback,
                  policy: RetryPolicy,
                  label: str = "supervised") -> PendingExchange:
        """Attempt supervision without the datagram layer, for flows
        that own their channel (DoH's per-query TLS connection). The
        caller starts its attempt in ``begin_attempt`` and reports the
        terminal value through :meth:`PendingExchange.resolve`."""
        self._exchanges_started += 1
        pending = PendingExchange(
            self._simulator, policy, begin_attempt,
            self._finalize(on_complete, label), label=label,
            tracer=self._tracer)
        return pending.start()

    def _finalize(self, on_complete: CompletionCallback,
                  label: str) -> CompletionCallback:
        def wrapped(report: ExchangeReport) -> None:
            if report.timed_out:
                self._exchanges_timed_out += 1
            if self._telemetry is not None:
                self._publish(report, label)
            on_complete(report)
        return wrapped

    def _publish(self, report: ExchangeReport, label: str) -> None:
        """One completed exchange's metrics, keyed by exchange label."""
        counter = self._telemetry.counter
        counter("transport.exchanges", label=label).inc()
        counter("transport.attempts", label=label).inc(report.attempts)
        if report.timed_out:
            counter("transport.timeouts", label=label).inc()
            # Retry exhaustion, named explicitly: the whole policy
            # budget (first attempt plus every retry) timed out and the
            # caller got nothing. Availability dashboards key on this
            # rather than inferring it from timeouts vs attempts.
            counter("transport.exhausted", label=label).inc()
        elif report.rtt is not None:
            self._telemetry.histogram(
                "transport.rtt", label=label).observe(report.rtt)
        if report.bytes_sent:
            counter("transport.bytes_sent",
                    label=label).inc(report.bytes_sent)
        if report.bytes_received:
            counter("transport.bytes_received",
                    label=label).inc(report.bytes_received)
        if report.rejected_replies:
            counter("transport.rejected_replies",
                    label=label).inc(report.rejected_replies)
        if report.suppressed_replies:
            counter("transport.suppressed_replies",
                    label=label).inc(report.suppressed_replies)
