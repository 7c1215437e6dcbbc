"""Unit tests for the unified request/response transport."""

import gc
import random
import weakref

import pytest

from repro.netsim.address import Endpoint, IPAddress, ip
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.netsim.link import LinkProfile
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.dns.client import StubResolver
from repro.dns.rrtype import RRType
from repro.netsim.transport import RetryPolicy, Transport
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.util.rng import RngRegistry


class TestRetryPolicy:
    def test_defaults_single_attempt_fixed_timeout(self):
        policy = RetryPolicy(timeout=2.0)
        assert policy.max_attempts == 1
        assert policy.timeout_for(1) == 2.0
        assert policy.total_budget() == 2.0

    def test_exponential_backoff_schedule(self):
        policy = RetryPolicy(timeout=1.0, retries=3, backoff=2.0)
        assert [policy.timeout_for(a) for a in (1, 2, 3, 4)] == \
            [1.0, 2.0, 4.0, 8.0]
        assert policy.total_budget() == 15.0

    def test_backoff_cap(self):
        policy = RetryPolicy(timeout=1.0, retries=3, backoff=2.0,
                             max_timeout=3.0)
        assert [policy.timeout_for(a) for a in (1, 2, 3, 4)] == \
            [1.0, 2.0, 3.0, 3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=1.0, retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=1.0, backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=1.0, max_timeout=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=1.0).timeout_for(2)


class _World:
    """Two hosts on one link; the server side is scripted per test."""

    def __init__(self, seed: int = 1, latency: float = 0.01):
        self.registry = RngRegistry(seed)
        self.simulator = Simulator()
        topology = Topology(self.registry)
        topology.add_link("a", "b", LinkProfile(latency=latency))
        self.internet = Internet(self.simulator, topology, self.registry)
        self.client = self.internet.add_host(
            Host("client", "a", [ip("10.0.0.1")],
                 rng=self.registry.stream("client-ports")))
        self.server = self.internet.add_host(
            Host("server", "b", [ip("10.0.0.2")]))
        self.server_endpoint = Endpoint(IPAddress("10.0.0.2"), 7)
        self.transport = self.client.transport(self.simulator)
        self.txids = self.registry.stream("txid")

    def serve(self, responder):
        """Bind the server port; ``responder(socket, datagram)``."""
        socket = self.server.bind(7)
        socket.on_datagram(lambda datagram: responder(socket, datagram))
        return socket


def run_exchange(world, policy, responder=None, **kwargs):
    if responder is not None:
        world.serve(responder)
    reports = []
    world.transport.exchange(
        world.server_endpoint,
        build_request=kwargs.pop("build_request",
                                 lambda txid: b"ping"),
        classify=kwargs.pop("classify",
                            lambda datagram, txid: datagram.payload),
        on_complete=reports.append, policy=policy,
        txids=kwargs.pop("txids", world.txids), **kwargs)
    world.simulator.run()
    assert len(reports) == 1, "completion must fire exactly once"
    return reports[0]


class TestDatagramExchange:
    def test_simple_roundtrip(self):
        world = _World()
        report = run_exchange(
            world, RetryPolicy(timeout=1.0),
            responder=lambda socket, datagram: socket.reply(datagram, b"pong"))
        assert report.value == b"pong"
        assert not report.timed_out
        assert report.attempts == 1
        assert report.bytes_sent == 4
        assert report.bytes_received == 4
        assert report.rtt == pytest.approx(0.02)

    def test_timeout_exhausts_attempts(self):
        telemetry = MetricsRegistry()
        with use_registry(telemetry):
            world = _World()
        report = run_exchange(world, RetryPolicy(timeout=0.5, retries=2))
        assert report.timed_out
        assert report.value is None
        assert report.attempts == 3
        assert world.simulator.now == pytest.approx(1.5)
        assert telemetry.value("transport.timeouts", label="exchange") == 1

    def test_backoff_timing(self):
        world = _World()
        run_exchange(world, RetryPolicy(timeout=0.5, retries=2, backoff=2.0))
        # 0.5 + 1.0 + 2.0 worst case.
        assert world.simulator.now == pytest.approx(3.5)

    def test_retry_succeeds_after_drops(self):
        world = _World()
        state = {"seen": 0}

        def flaky(socket, datagram):
            state["seen"] += 1
            if state["seen"] >= 3:
                socket.reply(datagram, b"pong")

        report = run_exchange(world, RetryPolicy(timeout=0.2, retries=5),
                              responder=flaky)
        assert not report.timed_out
        assert report.attempts == 3
        assert state["seen"] == 3

    def test_rejected_replies_keep_exchange_pending(self):
        world = _World()

        def responder(socket, datagram):
            socket.reply(datagram, b"garbage")
            socket.reply(datagram, b"pong")

        def classify(datagram, txid):
            return datagram.payload if datagram.payload == b"pong" else None

        report = run_exchange(world, RetryPolicy(timeout=1.0),
                              responder=responder, classify=classify)
        assert report.value == b"pong"
        assert report.rejected_replies == 1

    def test_duplicate_replies_are_suppressed(self):
        world = _World()
        outcomes = []

        def responder(socket, datagram):
            socket.reply(datagram, b"pong")
            socket.reply(datagram, b"pong")

        world.serve(responder)
        world.transport.exchange(
            world.server_endpoint,
            build_request=lambda txid: b"ping",
            classify=lambda datagram, txid: datagram.payload,
            on_complete=outcomes.append, policy=RetryPolicy(timeout=1.0))
        world.simulator.run()
        assert len(outcomes) == 1  # the duplicate never reaches the owner

    def test_txids_drawn_per_attempt(self):
        world = _World()
        seen = []

        def build_request(txid):
            seen.append((world.simulator.now, txid))
            return b"ping"

        report = run_exchange(world, RetryPolicy(timeout=0.2, retries=2),
                              build_request=build_request)
        assert report.attempts == 3
        # One fresh draw per attempt, at each attempt's start, from the
        # exchange's own stream.
        reference = RngRegistry(1).stream("txid")
        assert seen == [(pytest.approx(at), reference.randrange(1 << 16))
                        for at in (0.0, 0.2, 0.4)]
        # Deterministic: same seed, same txid sequence.
        world2 = _World()
        seen2 = []
        run_exchange(world2, RetryPolicy(timeout=0.2, retries=2),
                     build_request=lambda txid: (seen2.append(
                         (world2.simulator.now, txid)) or b"ping"))
        assert seen == seen2

    def test_classifier_sees_the_attempts_txid(self):
        world = _World()
        sent, classified = [], []

        def build_request(txid):
            sent.append(txid)
            return b"ping"

        def classify(datagram, txid):
            classified.append(txid)
            # Only the second attempt's reply is accepted.
            return datagram.payload if len(sent) == 2 else None

        def responder(socket, datagram):
            socket.reply(datagram, b"pong")

        report = run_exchange(world, RetryPolicy(timeout=0.2, retries=2),
                              responder=responder,
                              build_request=build_request,
                              classify=classify)
        assert report.value == b"pong"
        assert report.rejected_replies == 1
        reference = RngRegistry(1).stream("txid")
        assert classified == sent == [reference.randrange(1 << 16)
                                      for _ in range(2)]

    def test_cancel_releases_the_socket(self):
        world = _World()
        outcomes = []
        exchange = world.transport.exchange(
            world.server_endpoint,
            build_request=lambda txid: b"ping",
            classify=lambda datagram, txid: datagram.payload,
            on_complete=outcomes.append, policy=RetryPolicy(timeout=1.0))
        assert len(world.client.open_sockets) == 1
        exchange.cancel()
        assert world.client.open_sockets == []   # port released immediately
        world.simulator.run()
        assert outcomes == []                    # and no completion fires

    def test_fresh_socket_per_attempt_ignores_stale_port(self):
        """A reply addressed to a previous attempt's port is dropped by
        the host (the socket is gone), so it cannot complete the
        exchange."""
        world = _World()
        stale = []

        def responder(socket, datagram):
            stale.append(datagram)
            if len(stale) == 2:
                # Answer the FIRST attempt's (closed) source port.
                socket.sendto(stale[0].src, b"late")

        report = run_exchange(world, RetryPolicy(timeout=0.2, retries=3),
                              responder=responder)
        assert report.timed_out
        assert report.attempts == 4


class TestSupervise:
    def test_resolve_ends_supervision(self):
        world = _World()
        attempts = []
        reports = []

        def begin():
            attempts.append(world.simulator.now)
            world.simulator.schedule_after(
                0.05, lambda: pending.resolve("done"))

        pending = world.transport.supervise(
            begin_attempt=begin, on_complete=reports.append,
            policy=RetryPolicy(timeout=1.0, retries=2))
        world.simulator.run()
        assert attempts == [0.0]
        assert reports == [pending]
        assert pending.value == "done"
        assert pending.attempts == 1
        assert pending.rtt == pytest.approx(0.05)

    def test_timeout_retries_then_exhausts(self):
        world = _World()
        attempts = []
        reports = []
        world.transport.supervise(
            begin_attempt=lambda: attempts.append(world.simulator.now),
            on_complete=reports.append,
            policy=RetryPolicy(timeout=0.5, retries=2))
        world.simulator.run()
        assert attempts == [0.0, 0.5, 1.0]
        assert reports[0].timed_out
        assert reports[0].attempts == 3

    def test_late_resolve_is_suppressed(self):
        world = _World()
        reports = []
        pending = world.transport.supervise(
            begin_attempt=lambda: None,
            on_complete=reports.append, policy=RetryPolicy(timeout=1.0))
        world.simulator.schedule_after(0.05, lambda: pending.resolve("first"))
        world.simulator.run()
        pending.resolve("too late")
        # The callback fired once, with the first value.
        assert reports == [pending]
        assert pending.value == "first"
        assert pending.rtt == pytest.approx(0.05)
        assert not pending.timed_out


class TestTimeout:
    """The exchange schedules its own timeout event, one per attempt."""

    def test_rearmed_per_attempt(self):
        world = _World()
        simulator = world.simulator
        starts = []
        pending = world.transport.supervise(
            begin_attempt=lambda: starts.append(
                (simulator.now, simulator.pending_events)),
            on_complete=lambda exchange: None,
            policy=RetryPolicy(timeout=0.5, retries=2, backoff=2.0))
        assert simulator.pending_events == 1
        simulator.run()
        # Each attempt starts once the previous timeout fired, with
        # nothing armed, and arms one timeout of its own length.
        assert starts == [(0.0, 0), (0.5, 0), (1.5, 0)]
        assert simulator.executed_events == 3
        assert pending.timed_out
        assert pending.elapsed == pytest.approx(3.5)

    def test_disarmed_on_resolve(self):
        world = _World()
        simulator = world.simulator
        pending = world.transport.supervise(
            begin_attempt=lambda: None, on_complete=lambda exchange: None,
            policy=RetryPolicy(timeout=1.0, retries=2))
        simulator.schedule_after(0.05, lambda: pending.resolve("done"))
        simulator.run()
        # The cancelled timeout was popped dead: it neither fired nor
        # moved the clock.
        assert simulator.executed_events == 1
        assert simulator.now == pytest.approx(0.05)
        assert pending.attempts == 1

    def test_disarmed_on_cancel(self):
        world = _World()
        simulator = world.simulator
        completions = []
        pending = world.transport.supervise(
            begin_attempt=lambda: None, on_complete=completions.append,
            policy=RetryPolicy(timeout=1.0, retries=2))
        pending.cancel()
        assert simulator.pending_events == 0
        simulator.run()
        assert simulator.executed_events == 0
        assert simulator.now == 0.0
        assert completions == []
        assert pending.attempts == 1

    def test_cancelled_timeout_is_one_dead_entry_pinning_nothing(self):
        world = _World()
        world.serve(lambda socket, datagram: socket.reply(datagram, b"pong"))
        simulator = world.simulator
        outcomes = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            exchange = world.transport.exchange(
                world.server_endpoint, build_request=lambda txid: b"ping",
                classify=lambda datagram, txid: datagram.payload,
                on_complete=lambda exchange: outcomes.append(exchange.value),
                policy=RetryPolicy(timeout=1.0))
            ref = weakref.ref(exchange)
            del exchange
            # A live event ahead of the timeout keeps the heap from
            # popping it, as a busy world's heap would.
            simulator.schedule_at(0.8, lambda: None)
            simulator.run(until=0.5)
            assert outcomes == [b"pong"]
            # Answered at 0.02: the 1 s timeout is still queued, dead.
            live, dead = sorted(simulator._queue)
            assert live[0] == 0.8 and not live[2].cancelled
            assert dead[0] == 1.0
            assert dead[2].cancelled and dead[2].callback is None
            assert simulator.pending_events == 1
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestTxidStream:
    def test_each_exchange_draws_from_its_own_stream(self):
        world = _World()
        world.serve(lambda socket, datagram: socket.reply(datagram, b"pong"))
        streams = {name: world.registry.stream("txid", name)
                   for name in ("a", "b")}
        seen = []
        for name in ("a", "b", "a"):
            world.transport.exchange(
                world.server_endpoint,
                build_request=lambda txid, n=name: (
                    seen.append((n, txid)) or b"ping"),
                classify=lambda datagram, txid: datagram.payload,
                on_complete=lambda report: None,
                policy=RetryPolicy(timeout=1.0), txids=streams[name])
        world.simulator.run()
        a = RngRegistry(1).stream("txid", "a")
        b = RngRegistry(1).stream("txid", "b")
        assert seen == [("a", a.randrange(1 << 16)),
                        ("b", b.randrange(1 << 16)),
                        ("a", a.randrange(1 << 16))]

    def test_without_a_stream_attempts_carry_no_txid(self):
        world = _World()
        seen = []
        run_exchange(world, RetryPolicy(timeout=0.2, retries=1),
                     build_request=lambda txid: seen.append(txid) or b"ping",
                     txids=None)
        assert seen == [None, None]

    def test_stub_without_rng_draws_random_zero_sequence(self):
        world = _World()
        wire_txids = []
        socket = world.server.bind(53)
        socket.on_datagram(lambda datagram: wire_txids.append(
            int.from_bytes(datagram.payload[:2], "big")))
        stub = StubResolver(world.client, world.simulator, ip("10.0.0.2"),
                            timeout=0.5, retries=0)
        for _ in range(3):
            stub.query("example.org", RRType.A, lambda outcome: None)
        world.simulator.run()
        reference = random.Random(0)
        assert wire_txids == [reference.randrange(1 << 16) for _ in range(3)]

    def test_stub_without_rng_holds_no_generator_before_querying(self):
        world = _World()
        stub = StubResolver(world.client, world.simulator, ip("10.0.0.2"))
        assert stub._txids is None
        transport = world.client.transport(world.simulator)
        assert not any(isinstance(value, random.Random)
                       for value in vars(transport).values())


class TestOneTransportPerHost:
    def test_protocol_clients_on_a_host_share_its_transport(self):
        from repro.ntp.client import NtpClient
        from repro.ntp.clock import SimClock

        world = _World()
        stubs = [StubResolver(world.client, world.simulator, ip("10.0.0.2"))
                 for _ in range(2)]
        ntp = NtpClient(world.client, world.simulator,
                        SimClock(lambda: world.simulator.now))
        assert stubs[0]._transport is stubs[1]._transport
        assert ntp._transport is stubs[0]._transport
        assert world.transport is stubs[0]._transport

    def test_equal_patience_shares_one_policy(self):
        world = _World()
        first = StubResolver(world.client, world.simulator, ip("10.0.0.2"),
                             timeout=2.0, retries=1)
        second = StubResolver(world.server, world.simulator, ip("10.0.0.1"),
                              timeout=2.0, retries=1)
        other = StubResolver(world.client, world.simulator, ip("10.0.0.2"),
                             timeout=2.0, retries=0)
        assert first._policy is second._policy
        assert first._policy == RetryPolicy(timeout=2.0, retries=1)
        assert other._policy is not first._policy


class TestSharedInstruments:
    def test_transports_under_one_registry_share_instruments(self):
        registry = MetricsRegistry()
        world = _World()
        world.serve(lambda socket, datagram: socket.reply(datagram, b"pong"))
        with use_registry(registry):
            transports = [Transport(world.client, world.simulator)
                          for i in range(3)]
        reports = []
        for transport in transports:
            transport.exchange(
                world.server_endpoint,
                build_request=lambda txid: b"ping",
                classify=lambda datagram, txid: datagram.payload,
                on_complete=reports.append,
                policy=RetryPolicy(timeout=1.0), label="probe")
        world.simulator.run()
        assert len(reports) == 3
        exchanges = registry.counter("transport.exchanges", label="probe")
        assert exchanges.value == 3
        assert registry.get("transport.exchanges", label="probe") is exchanges
        assert registry.counter("transport.bytes_sent",
                                label="probe").value == 12
        assert registry.histogram("transport.rtt", label="probe").count == 3
        assert registry.names() == sorted(
            f"transport.{name}{{label=probe}}"
            for name in ("attempts", "bytes_received", "bytes_sent",
                         "exchanges", "rtt"))
