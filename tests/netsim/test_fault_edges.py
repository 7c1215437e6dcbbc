"""Degenerate failure edges: total loss, dead hierarchies, storms at
downed hosts — the netsim must degrade into clean give-up signals, not
crashes or silent hangs."""

import pytest

from repro.dns.resolver import ResolveStatus, ResolverConfig
from repro.dns.rrtype import RRType
from repro.netsim.address import Endpoint, IPAddress, ip
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.netsim.link import FaultModel, LinkProfile
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.netsim.transport import RetryPolicy, Transport
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.telemetry.trace import Tracer, use_tracer
from repro.util.rng import RngRegistry

from tests.dns.conftest import build_dns_world

NS_HOSTS = ("root-ns", "org-ns", "ntp-ns")


def build_world(fault=None, telemetry=None, tracer=None):
    """Two hosts on one link, optionally faulted/instrumented. The
    internet and transport capture telemetry/tracing at construction,
    so everything is built inside the contexts."""
    registry = RngRegistry(1)
    simulator = Simulator()
    topology = Topology(registry)
    topology.add_link("a", "b", LinkProfile(latency=0.01))
    if fault is not None:
        topology.set_fault_model("a", "b", fault)

    import contextlib
    with contextlib.ExitStack() as stack:
        if telemetry is not None:
            stack.enter_context(use_registry(telemetry))
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        internet = Internet(simulator, topology, registry)
        client = internet.add_host(
            Host("client", "a", [ip("10.0.0.1")],
                 rng=registry.stream("client-ports")))
        internet.add_host(Host("server", "b", [ip("10.0.0.2")]))
        transport = Transport(client, simulator)
    return simulator, internet, transport


def run_exchange(simulator, transport, policy):
    reports = []
    transport.exchange(
        Endpoint(IPAddress("10.0.0.2"), 7),
        build_request=lambda attempt: b"ping",
        classify=lambda datagram, attempt: datagram.payload,
        on_complete=reports.append, policy=policy, label="edge-probe")
    simulator.run()
    (report,) = reports
    return report


class TestTotalLoss:
    def test_loss_rate_one_drops_every_datagram(self):
        telemetry = MetricsRegistry()
        simulator, internet, transport = build_world(
            fault=FaultModel(loss_rate=1.0), telemetry=telemetry)
        report = run_exchange(simulator, transport,
                              RetryPolicy(timeout=0.5, retries=2))
        assert report.timed_out
        assert report.attempts == 3
        counters = telemetry.snapshot()["counter"]
        drops = sum(value for key, value in counters.items()
                    if key.startswith("net.drops"))
        assert drops == 3                     # one per attempt, all lost
        assert counters["transport.exhausted{label=edge-probe}"] == 1
        assert counters["transport.timeouts{label=edge-probe}"] == 1

    def test_exhausted_exchange_span_carries_gave_up(self):
        tracer = Tracer()
        simulator, internet, transport = build_world(
            fault=FaultModel(loss_rate=1.0), tracer=tracer)
        run_exchange(simulator, transport,
                     RetryPolicy(timeout=0.5, retries=1))
        (span,) = [s for s in tracer.spans
                   if s.name == "transport.exchange"]
        assert span.attrs["gave_up"] is True

    def test_successful_exchange_has_no_gave_up_or_exhausted(self):
        telemetry = MetricsRegistry()
        tracer = Tracer()
        simulator, internet, transport = build_world(
            telemetry=telemetry, tracer=tracer)
        socket = internet.host_for_address(IPAddress("10.0.0.2")).bind(7)
        socket.on_datagram(lambda datagram: socket.reply(datagram, b"pong"))
        report = run_exchange(simulator, transport,
                              RetryPolicy(timeout=0.5, retries=1))
        assert report.value == b"pong"
        counters = telemetry.snapshot()["counter"]
        assert "transport.exhausted{label=edge-probe}" not in counters
        clean = [s for s in tracer.spans
                 if s.name == "transport.exchange"
                 and not (s.attrs or {}).get("timed_out")]
        assert clean and all("gave_up" not in (s.attrs or {})
                             for s in clean)


class TestDeadHierarchy:
    def resolve(self, world, qname="pool.ntppool.org"):
        results = []
        world.resolver.resolve(qname, RRType.A, results.append)
        world.simulator.run()
        (outcome,) = results
        return outcome

    def fast_config(self):
        return ResolverConfig(query_timeout=0.5, max_retries_per_server=0,
                              retry_backoff=1.0)

    def test_every_ns_down_yields_servfail(self):
        world = build_dns_world(resolver_config=self.fast_config())
        for name in NS_HOSTS:
            world.internet.set_host_down(name)
        outcome = self.resolve(world)
        assert outcome.status is ResolveStatus.SERVFAIL
        assert world.resolver.stats.timeouts > 0

    def test_servfail_during_outage_is_not_negatively_cached(self):
        world = build_dns_world(resolver_config=self.fast_config())
        for name in NS_HOSTS:
            world.internet.set_host_down(name)
        assert self.resolve(world).status is ResolveStatus.SERVFAIL
        # Recovery: the dead-hierarchy SERVFAIL must not have poisoned
        # the cache with a negative entry that outlives the outage.
        for name in NS_HOSTS:
            world.internet.set_host_up(name)
        outcome = self.resolve(world)
        assert outcome.status is ResolveStatus.SUCCESS
        assert outcome.records


class TestStormAtDownedHost:
    def test_duplicate_storm_to_downed_host_just_drops(self):
        telemetry = MetricsRegistry()
        simulator, internet, transport = build_world(
            fault=FaultModel(duplicate_rate=1.0), telemetry=telemetry)
        internet.set_host_down("server")
        report = run_exchange(simulator, transport,
                              RetryPolicy(timeout=0.5, retries=3))
        assert report.timed_out
        assert report.attempts == 4
        counters = telemetry.snapshot()["counter"]
        host_down = sum(value for key, value in counters.items()
                        if key.startswith("net.drops")
                        and "host-down" in key)
        assert host_down >= report.attempts
