"""Integration tests for hosts, sockets and the delivery fabric."""

from contextlib import nullcontext

import pytest

from repro.netsim.address import Endpoint, ip
from repro.netsim.host import Host, PortInUseError
from repro.netsim.internet import Internet, TapAction, TapVerdict
from repro.netsim.link import LinkProfile
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator
from repro.netsim.socket import SocketClosedError
from repro.netsim.topology import Topology
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.telemetry.trace import Tracer, use_tracer
from repro.util.rng import RngRegistry


def build_pair(loss: float = 0.0, latency: float = 0.01):
    """Two hosts on a two-node topology; returns (internet, alpha, beta)."""
    sim = Simulator()
    registry = RngRegistry(42)
    topo = Topology(registry)
    topo.add_link("left", "right", LinkProfile(latency=latency, loss=loss))
    net = Internet(sim, topo, registry)
    alpha = net.add_host(Host("alpha", "left", [ip("10.0.0.1")]))
    beta = net.add_host(Host("beta", "right", [ip("10.0.0.2")]))
    return net, alpha, beta


def build_observed_pair(loss: float = 0.0, latency: float = 0.01):
    """:func:`build_pair` built under a tracer and a metrics registry;
    returns (internet, alpha, beta, tracer, registry)."""
    tracer, registry = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        net, alpha, beta = build_pair(loss=loss, latency=latency)
    return net, alpha, beta, tracer, registry


def spans_named(tracer, name):
    return [span for span in tracer.spans if span.name == name]


def only_flight(tracer):
    (flight,) = spans_named(tracer, "net.flight")
    return flight


class TestHostRegistration:
    def test_duplicate_name_rejected(self):
        net, _, _ = build_pair()
        with pytest.raises(ValueError, match="duplicate host name"):
            net.add_host(Host("alpha", "left", [ip("10.0.0.9")]))

    def test_duplicate_address_rejected(self):
        net, _, _ = build_pair()
        with pytest.raises(ValueError, match="already owned"):
            net.add_host(Host("gamma", "left", [ip("10.0.0.1")]))

    def test_unknown_node_rejected(self):
        net, _, _ = build_pair()
        with pytest.raises(ValueError, match="unknown node"):
            net.add_host(Host("gamma", "mars", [ip("10.0.0.9")]))

    def test_host_lookup(self):
        net, alpha, _ = build_pair()
        assert net.host("alpha") is alpha
        assert net.host_for_address(ip("10.0.0.1")) is alpha
        assert net.host_for_address(ip("10.9.9.9")) is None

    def test_host_needs_address(self):
        with pytest.raises(ValueError):
            Host("empty", "left", [])

    def test_address_for_family(self):
        host = Host("dual", "left", [ip("10.0.0.5"), ip("fd00::5")])
        assert host.address_for_family(4) == ip("10.0.0.5")
        assert host.address_for_family(6) == ip("fd00::5")
        with pytest.raises(LookupError):
            Host("v4only", "left", [ip("10.0.0.6")]).address_for_family(6)


class TestDelivery:
    def test_basic_delivery(self):
        net, alpha, beta = build_pair()
        received = []
        beta.bind(53, received.append)
        sock = alpha.ephemeral_socket()
        sock.sendto(Endpoint(ip("10.0.0.2"), 53), b"hello")
        net.simulator.run()
        assert len(received) == 1
        assert received[0].payload == b"hello"
        assert received[0].src == sock.endpoint

    def test_latency_applied(self):
        net, alpha, beta = build_pair(latency=0.05)
        times = []
        beta.bind(53, lambda d: times.append(net.simulator.now))
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"x")
        net.simulator.run()
        assert times[0] >= 0.05

    def test_reply_goes_back(self):
        net, alpha, beta = build_pair()
        responses = []

        server_sock = beta.bind(53)
        server_sock.on_datagram(lambda d: server_sock.reply(d, b"pong"))
        client = alpha.ephemeral_socket(lambda d: responses.append(d.payload))
        client.sendto(Endpoint(ip("10.0.0.2"), 53), b"ping")
        net.simulator.run()
        assert responses == [b"pong"]

    def test_unbound_port_drops(self):
        net, alpha, _, tracer, registry = build_observed_pair()
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 999), b"x")
        net.simulator.run()
        assert net.datagrams_delivered == 0
        assert registry.value("net.drops", reason="no-socket") == 1
        flight = only_flight(tracer)
        assert flight.attrs["outcome"] == "dropped"
        assert flight.attrs["dropped_by"] == "no-socket"

    def test_unknown_address_drops(self):
        net, alpha, _, tracer, registry = build_observed_pair()
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.9.9.9"), 53), b"x")
        net.simulator.run()
        assert registry.value("net.drops", reason="no-host") == 1
        assert only_flight(tracer).attrs["dropped_by"] == "no-host"
        assert spans_named(tracer, "net.hop") == []

    def test_full_loss_link_drops(self):
        net, alpha, beta, tracer, registry = build_observed_pair(loss=1.0)
        received = []
        beta.bind(53, received.append)
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"x")
        net.simulator.run()
        assert received == []
        assert registry.value("net.drops", reason="left--right") == 1
        assert only_flight(tracer).attrs["dropped_by"] == "left--right"
        (hop,) = spans_named(tracer, "net.hop")
        assert hop.attrs["fault"] == "loss"

    def test_same_node_loopback_style_delivery(self):
        sim = Simulator()
        registry = RngRegistry(1)
        topo = Topology(registry)
        topo.add_node("only")
        net = Internet(sim, topo, registry)
        a = net.add_host(Host("a", "only", [ip("10.0.0.1")]))
        b = net.add_host(Host("b", "only", [ip("10.0.0.2")]))
        got = []
        b.bind(53, got.append)
        a.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"hi")
        sim.run()
        assert len(got) == 1

    def test_counters(self):
        net, alpha, beta = build_pair()
        beta.bind(53, lambda d: None)
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"12345")
        net.simulator.run()
        assert net.datagrams_sent == 1
        assert net.datagrams_delivered == 1
        assert net.bytes_sent == 5

    def test_flight_latency_and_route(self):
        net, alpha, beta, tracer, registry = build_observed_pair(
            latency=0.02)
        beta.bind(53, lambda d: None)
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"x")
        net.simulator.run()
        assert registry.value("net.datagrams_delivered") == 1
        flight = only_flight(tracer)
        assert flight.attrs["outcome"] == "delivered"
        assert flight.end - flight.start >= 0.02
        assert [hop.attrs["link"] for hop in spans_named(tracer, "net.hop")] \
            == ["left--right"]
        assert flight.attrs["hops"] == 1


class TestSockets:
    def test_bind_conflict(self):
        _, alpha, _ = build_pair()
        alpha.bind(53)
        with pytest.raises(PortInUseError):
            alpha.bind(53)

    def test_bind_foreign_address_rejected(self):
        _, alpha, _ = build_pair()
        with pytest.raises(ValueError):
            alpha.bind(53, address=ip("10.0.0.2"))

    def test_closed_socket_cannot_send(self):
        _, alpha, _ = build_pair()
        sock = alpha.ephemeral_socket()
        sock.close()
        with pytest.raises(SocketClosedError):
            sock.sendto(Endpoint(ip("10.0.0.2"), 53), b"x")

    def test_close_releases_port(self):
        _, alpha, _ = build_pair()
        sock = alpha.bind(53)
        sock.close()
        alpha.bind(53)  # must not raise

    def test_closed_socket_drops_inbound(self):
        net, alpha, beta = build_pair()
        received = []
        server = beta.bind(53, received.append)
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"x")
        server.close()
        net.simulator.run()
        assert received == []

    def test_ephemeral_ports_unique(self):
        _, alpha, _ = build_pair()
        ports = {alpha.ephemeral_socket().endpoint.port for _ in range(50)}
        assert len(ports) == 50

    def test_sequential_ports_predictable(self):
        host = Host("seq", "left", [ip("10.1.0.1")], randomize_ports=False)
        first = host.ephemeral_socket().endpoint.port
        second = host.ephemeral_socket().endpoint.port
        assert second == first + 1

    def test_socket_counters(self):
        net, alpha, beta = build_pair()
        server = beta.bind(53, lambda d: None)
        client = alpha.ephemeral_socket()
        client.sendto(Endpoint(ip("10.0.0.2"), 53), b"x")
        net.simulator.run()
        assert client.datagrams_sent == 1
        assert server.datagrams_received == 1


class TestTaps:
    def test_observing_tap_sees_packets(self):
        net, alpha, beta = build_pair()
        seen = []

        def tap(link, datagram):
            seen.append(datagram.payload)
            return TapAction.passthrough()

        net.add_tap("left--right", tap)
        beta.bind(53, lambda d: None)
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"secret")
        net.simulator.run()
        assert seen == [b"secret"]

    def test_dropping_tap(self):
        net, alpha, beta, tracer, registry = build_observed_pair()
        received = []
        net.add_tap("left--right", lambda link, d: TapAction.drop())
        beta.bind(53, received.append)
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"x")
        net.simulator.run()
        assert received == []
        assert registry.value("net.drops", reason="tap:left--right") == 1
        assert only_flight(tracer).attrs["dropped_by"] == "tap:left--right"

    def test_rewriting_tap(self):
        net, alpha, beta = build_pair()
        received = []
        net.add_tap("left--right",
                    lambda link, d: TapAction.rewrite(b"tampered"))
        beta.bind(53, received.append)
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"x")
        net.simulator.run()
        assert received[0].payload == b"tampered"

    def test_tap_extra_delay_on_rewrite(self):
        net, alpha, beta = build_pair(latency=0.01)
        times = []
        net.add_tap("left--right",
                    lambda link, d: TapAction.rewrite(d.payload, extra_delay=0.5))
        beta.bind(53, lambda d: times.append(net.simulator.now))
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"x")
        net.simulator.run()
        assert times[0] >= 0.51

    def test_remove_tap(self):
        net, alpha, beta = build_pair()
        received = []
        tap = lambda link, d: TapAction.drop()
        net.add_tap("left--right", tap)
        net.remove_tap("left--right", tap)
        beta.bind(53, received.append)
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"x")
        net.simulator.run()
        assert len(received) == 1

    def test_first_non_pass_verdict_wins(self):
        net, alpha, beta = build_pair()
        received = []
        net.add_tap("left--right", lambda link, d: TapAction.drop())
        net.add_tap("left--right",
                    lambda link, d: TapAction.rewrite(b"never"))
        beta.bind(53, received.append)
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"x")
        net.simulator.run()
        assert received == []


class TestInjection:
    def test_offpath_injection_with_spoofed_source(self):
        net, alpha, beta = build_pair()
        received = []
        beta.bind(53, received.append)
        # Attacker injects from "left" claiming to be 10.0.0.1.
        forged = Datagram(src=Endpoint(ip("10.0.0.1"), 12345),
                          dst=Endpoint(ip("10.0.0.2"), 53),
                          payload=b"forged")
        net.inject(forged, at_node="left")
        net.simulator.run()
        assert len(received) == 1
        assert received[0].spoofed is True
        assert received[0].src.address == ip("10.0.0.1")

    def test_injected_packets_cross_taps(self):
        net, alpha, beta = build_pair()
        received = []
        net.add_tap("left--right", lambda link, d: TapAction.drop())
        beta.bind(53, received.append)
        forged = Datagram(src=Endpoint(ip("10.0.0.1"), 1),
                          dst=Endpoint(ip("10.0.0.2"), 53), payload=b"x")
        net.inject(forged, at_node="left")
        net.simulator.run()
        assert received == []


class TestHostDownInFlight:
    @staticmethod
    def flight_attrs(with_registry: bool) -> dict:
        """The flight of one datagram whose destination crashes while
        it crosses a 50 ms link."""
        tracer = Tracer()
        telemetry = (use_registry(MetricsRegistry()) if with_registry
                     else nullcontext())
        with use_tracer(tracer), telemetry:
            net, alpha, beta = build_pair(latency=0.05)
        received = []
        beta.bind(53, received.append)
        alpha.ephemeral_socket().sendto(Endpoint(ip("10.0.0.2"), 53), b"x")
        net.simulator.schedule_at(0.01, lambda: net.set_host_down("beta"))
        net.simulator.run()
        assert received == []
        return only_flight(tracer).attrs

    def test_flight_reads_dropped_with_and_without_registry(self):
        lean = self.flight_attrs(with_registry=False)
        counted = self.flight_attrs(with_registry=True)
        assert lean == counted
        assert (lean["outcome"], lean["dropped_by"]) == ("dropped", "host-down")
