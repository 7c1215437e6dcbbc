"""Exchange lifetime: a finished exchange is freed by refcounting alone.

Every test runs with the cyclic collector disabled, so an object that
survives only inside a reference cycle stays alive and its weak
reference stays live. A fleet round fans out one exchange per provider
plus an NTP sync; an exchange left in a cycle drags its closures,
messages and socket into the collector's oldest generation.
"""

import collections
import gc
import weakref

import pytest

from repro.dns.client import StubResolver
from repro.dns.message import Message, make_response
from repro.dns.rrtype import RRType
from repro.doh.client import DoHClient, DoHStatus, _DoHQuery
from repro.doh.tls import CertificateAuthority, TlsClientConnection, TrustStore
from repro.netsim.address import Endpoint, IPAddress, ip
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.netsim.link import LinkProfile
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.netsim.transport import RetryPolicy, Transport
from repro.scenarios.spec import (
    ResolverSpec,
    materialize,
    pool_spec,
    population_spec,
    set_path,
)
from repro.util.rng import RngRegistry


@pytest.fixture(autouse=True)
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def assert_dead(refs):
    alive = [ref() for ref in refs if ref() is not None]
    assert alive == [], f"still alive: {[type(o).__name__ for o in alive]}"


# ----------------------------------------------------------------------
# The datagram layer (stub DNS).
# ----------------------------------------------------------------------


class _StubWorld:
    """A stub resolver and a scripted DNS server on one 10 ms link."""

    def __init__(self, answer: bool = True):
        registry = RngRegistry(3)
        self.simulator = Simulator()
        topology = Topology(registry)
        topology.add_link("a", "b", LinkProfile(latency=0.01))
        internet = Internet(self.simulator, topology, registry)
        self.client = internet.add_host(
            Host("client", "a", [ip("10.0.0.1")],
                 rng=registry.stream("client-ports")))
        server = internet.add_host(Host("server", "b", [ip("10.0.0.2")]))
        self.server = Endpoint(IPAddress("10.0.0.2"), 53)
        socket = server.bind(53)
        if answer:
            socket.on_datagram(lambda datagram: socket.reply(
                datagram,
                make_response(Message.decode(datagram.payload)).encode()))
        self.stub = StubResolver(self.client, self.simulator,
                                 IPAddress("10.0.0.2"), timeout=1.0,
                                 retries=1, rng=registry.stream("txid"))


def record_exchanges(monkeypatch):
    """Weak references to every datagram exchange started (one object
    per exchange: its supervision, record and socket slot)."""
    refs = []
    exchange = Transport.exchange

    def recording(self, *args, **kwargs):
        handle = exchange(self, *args, **kwargs)
        refs.append(weakref.ref(handle))
        return handle

    monkeypatch.setattr(Transport, "exchange", recording)
    return refs


class TestDatagramExchange:
    def test_answered_query_dies_before_its_timeout_deadline(self, monkeypatch):
        world = _StubWorld(answer=True)
        refs = record_exchanges(monkeypatch)
        outcomes = []
        world.stub.query("pool.ntp.org", RRType.A, outcomes.append)
        assert len(refs) == 1
        # Answered at t=0.02. The live event at 0.8 keeps the cancelled
        # 1 s timeout queued behind it, as a busy fleet's heap would.
        world.simulator.schedule_at(0.8, lambda: None)
        world.simulator.run(until=0.5)
        assert len(outcomes) == 1 and outcomes[0].ok
        assert world.simulator.pending_events == 1
        dead = [event for _, _, event in world.simulator._queue
                if event.cancelled]
        assert [(event.time, event.callback) for event in dead] == [
            (1.0, None)]
        assert_dead(refs)

    def test_exhausted_query_dies(self, monkeypatch):
        world = _StubWorld(answer=False)
        refs = record_exchanges(monkeypatch)
        outcomes = []
        world.stub.query("pool.ntp.org", RRType.A, outcomes.append)
        assert len(refs) == 1
        world.simulator.run()
        assert len(outcomes) == 1 and outcomes[0].timed_out
        assert outcomes[0].attempts == 2
        assert_dead(refs)

    def test_cancelled_exchange_dies_at_once(self, monkeypatch):
        world = _StubWorld(answer=False)
        refs = record_exchanges(monkeypatch)
        completions = []
        exchange = Transport(world.client, world.simulator).exchange(
            world.server, build_request=lambda txid: b"ping",
            classify=lambda datagram, txid: datagram.payload,
            on_complete=completions.append, policy=RetryPolicy(timeout=1.0))
        exchange.cancel()
        del exchange
        # Nothing ran: the cancelled timeout still sits in the heap.
        assert_dead(refs)
        world.simulator.run()
        assert completions == []
        assert world.client.open_sockets == []


# ----------------------------------------------------------------------
# The supervised layer (DoH over its per-query TLS connection).
# ----------------------------------------------------------------------


def record_doh(monkeypatch):
    """Weak references to every DoH query, its exchange and every TLS
    connection it opens."""
    refs = []
    start = _DoHQuery.start
    connect = TlsClientConnection.connect

    def recording_start(self):
        refs.append(weakref.ref(self))
        start(self)
        refs.append(weakref.ref(self._exchange))

    def recording_connect(self):
        refs.append(weakref.ref(self))
        connect(self)

    monkeypatch.setattr(_DoHQuery, "start", recording_start)
    monkeypatch.setattr(TlsClientConnection, "connect", recording_connect)
    return refs


@pytest.fixture(scope="module")
def pool_world():
    return materialize(pool_spec(num_providers=1), 4)


class _ConnectionOwner:
    """Holds its connection and hands it bound methods: a cycle until
    the connection lets go of them."""

    def __init__(self, world):
        provider = world.providers[0]
        self.connection = TlsClientConnection(
            world.client, provider.endpoint, provider.name,
            world.trust_store, world.rng.stream("lifetime-owner"))
        self.connection.on_established(self.established)
        self.connection.on_data(self.data)
        self.connection.on_failure(self.failure)

    def established(self):
        pass

    def data(self, payload):
        pass

    def failure(self, reason):
        pass


def test_closed_tls_connection_releases_its_owner(pool_world):
    owner = _ConnectionOwner(pool_world)
    owner.connection.connect()
    pool_world.simulator.run()
    assert owner.connection.established
    owner.connection.close()
    refs = [weakref.ref(owner), weakref.ref(owner.connection)]
    del owner
    assert_dead(refs)


class TestDoHQuery:
    def test_answered_query_and_connection_die(self, monkeypatch, pool_world):
        refs = record_doh(monkeypatch)
        client = DoHClient(pool_world.client, pool_world.simulator,
                           pool_world.trust_store,
                           rng=pool_world.rng.stream("lifetime-ok"))
        provider = pool_world.providers[0]
        outcomes = []
        client.query(provider.endpoint, provider.name, "pool.ntp.org",
                     RRType.A, outcomes.append)
        assert len(refs) == 3          # query, exchange, connection
        pool_world.simulator.run()
        assert [outcome.status for outcome in outcomes] == [DoHStatus.OK]
        assert_dead(refs)

    def test_tls_failure_fires_once_and_everything_dies(self, monkeypatch,
                                                        pool_world):
        refs = record_doh(monkeypatch)
        rogue = TrustStore([CertificateAuthority(
            "Rogue CA", pool_world.rng.stream("lifetime-rogue"))])
        client = DoHClient(pool_world.client, pool_world.simulator, rogue,
                           rng=pool_world.rng.stream("lifetime-fail"))
        provider = pool_world.providers[0]
        outcomes = []
        client.query(provider.endpoint, provider.name, "pool.ntp.org",
                     RRType.A, outcomes.append)
        pool_world.simulator.run()
        # untrusted certificate -> _fail -> close() -> on_failure, once.
        assert [outcome.status for outcome in outcomes] == \
            [DoHStatus.TLS_FAILURE]
        assert "verification failed" in outcomes[0].failure_reason
        assert client.stats.tls_failures == 1
        assert_dead(refs)


# ----------------------------------------------------------------------
# Census: whole fleet runs leave no cyclic garbage of any type.
# ----------------------------------------------------------------------


FLEETS = {
    "forwarding": population_spec(num_clients=20, rounds=2, corrupted=1),
    "iterative": set_path(population_spec(num_clients=20, rounds=2),
                          "provider.resolver", ResolverSpec(mode="iterative")),
    "doh": set_path(population_spec(num_clients=3, rounds=1, corrupted=1),
                    "fleet.transport", "doh"),
}


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_fleet_run_leaves_no_cyclic_exchange_garbage(name):
    world = materialize(FLEETS[name], 7)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        outcomes = world.run()
        gc.collect()
        leaked = collections.Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert outcomes.rounds > 0
    assert leaked == {}
