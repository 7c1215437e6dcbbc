"""Unit tests for the unified request/response transport."""

import random

import pytest

from repro.netsim.address import Endpoint, IPAddress, ip
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.netsim.link import LinkProfile
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
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
        self.transport = Transport(self.client, self.simulator,
                                   rng=self.registry.stream("txid"))

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
                                 lambda attempt: b"ping"),
        classify=kwargs.pop("classify",
                            lambda datagram, attempt: datagram.payload),
        on_complete=reports.append, policy=policy, **kwargs)
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
        world = _World()
        report = run_exchange(world, RetryPolicy(timeout=0.5, retries=2))
        assert report.timed_out
        assert report.value is None
        assert report.attempts == 3
        assert world.simulator.now == pytest.approx(1.5)
        assert world.transport.exchanges_timed_out == 1

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

        def classify(datagram, attempt):
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
            build_request=lambda attempt: b"ping",
            classify=lambda datagram, attempt: datagram.payload,
            on_complete=outcomes.append, policy=RetryPolicy(timeout=1.0))
        world.simulator.run()
        assert len(outcomes) == 1  # the duplicate never reaches the owner

    def test_txids_drawn_per_attempt(self):
        world = _World()
        seen = []

        def build_request(attempt):
            seen.append((attempt.index, attempt.txid))
            return b"ping"

        run_exchange(world, RetryPolicy(timeout=0.2, retries=2),
                     build_request=build_request)
        assert [index for index, _ in seen] == [1, 2, 3]
        assert all(txid is not None for _, txid in seen)
        # Deterministic: same seed, same txid sequence.
        world2 = _World()
        seen2 = []
        run_exchange(world2, RetryPolicy(timeout=0.2, retries=2),
                     build_request=lambda a: (seen2.append((a.index, a.txid))
                                              or b"ping"))
        assert seen == seen2

    def test_cancel_releases_the_socket(self):
        world = _World()
        outcomes = []
        exchange = world.transport.exchange(
            world.server_endpoint,
            build_request=lambda attempt: b"ping",
            classify=lambda datagram, attempt: datagram.payload,
            on_complete=outcomes.append, policy=RetryPolicy(timeout=1.0))
        assert len(world.client.open_sockets) == 1
        exchange.pending.cancel()
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

        def begin(attempt):
            attempts.append(attempt.index)
            world.simulator.schedule_after(
                0.05, lambda: pending.resolve("done"))

        pending = world.transport.supervise(
            begin_attempt=begin, on_complete=reports.append,
            policy=RetryPolicy(timeout=1.0, retries=2))
        world.simulator.run()
        assert attempts == [1]
        assert reports[0].value == "done"
        assert reports[0].rtt == pytest.approx(0.05)

    def test_timeout_retries_then_exhausts(self):
        world = _World()
        attempts = []
        reports = []
        world.transport.supervise(
            begin_attempt=lambda attempt: attempts.append(attempt.index),
            on_complete=reports.append,
            policy=RetryPolicy(timeout=0.5, retries=2))
        world.simulator.run()
        assert attempts == [1, 2, 3]
        assert reports[0].timed_out

    def test_late_resolve_is_suppressed(self):
        world = _World()
        reports = []
        pending = world.transport.supervise(
            begin_attempt=lambda attempt: None,
            on_complete=reports.append, policy=RetryPolicy(timeout=0.1))
        world.simulator.run()
        assert reports[0].timed_out
        pending.resolve("too late")
        assert len(reports) == 1
        assert reports[0].value is None
        assert reports[0].suppressed_replies == 1


class TestTxidStream:
    def test_without_rng_draws_random_zero_sequence(self):
        world = _World()
        transport = Transport(world.client, world.simulator)
        reference = random.Random(0)
        assert [transport.draw_txid() for _ in range(8)] == [
            reference.randrange(1 << 16) for _ in range(8)]

    def test_without_rng_holds_no_generator_before_drawing(self):
        world = _World()
        transport = Transport(world.client, world.simulator)
        assert not any(isinstance(value, random.Random)
                       for value in vars(transport).values())


class TestSharedInstruments:
    def test_transports_under_one_registry_share_instruments(self):
        registry = MetricsRegistry()
        world = _World()
        world.serve(lambda socket, datagram: socket.reply(datagram, b"pong"))
        with use_registry(registry):
            transports = [Transport(world.client, world.simulator,
                                    rng=world.registry.stream("txid", str(i)))
                          for i in range(3)]
        reports = []
        for transport in transports:
            transport.exchange(
                world.server_endpoint,
                build_request=lambda attempt: b"ping",
                classify=lambda datagram, attempt: datagram.payload,
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
