"""Datagram conservation over whole worlds.

Every datagram the fabric accepts lands exactly once: after a drained
run, the datagrams counted at send time equal the ``net.*`` deliveries
plus drops counted at landing (duplicate copies are neither), and no
event is left on the heap. No exchange outlives its world either: once
the run is drained, no exchange (datagram or supervised) or TLS
connection the world started is still alive. Checked on smoke-size
versions of the perf workloads' fleets, on the golden scenarios'
worlds, and on every population point of the chaos (C1) and hierarchy
(H1) benches' smoke grids: outages, overload and referral walks under
an off-path spray.
"""

import gc
import weakref

import pytest

from benchmarks import bench_c1_chaos, bench_h1_hierarchy
from benchmarks.perf.unit import SIZES, fleet_spec
from repro.doh.tls import TlsClientConnection
from repro.netsim.transport import PendingExchange
from repro.scenarios import materialize, set_path
from repro.telemetry.registry import MetricsRegistry
from tests.golden.scenarios import SPECS

SEEDS = (1, 2, 3)

FLEETS = ("udp-fleet", "doh-fleet", "iterative-chaos")


@pytest.fixture
def exchanges(monkeypatch):
    """Weak references to every exchange (a datagram exchange is a
    :class:`PendingExchange` too) and TLS client connection constructed
    while the test runs, with the cyclic collector off: a finished
    exchange must die by refcount, so one kept alive by a reference
    cycle stays visible."""
    refs = []
    for cls in (PendingExchange, TlsClientConnection):
        def recording(self, *args, __init__=cls.__init__, **kwargs):
            __init__(self, *args, **kwargs)
            refs.append(weakref.ref(self))
        monkeypatch.setattr(cls, "__init__", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def assert_no_exchange_alive(refs):
    alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    assert refs
    assert alive == []


def _drained(spec, seed):
    """The world of ``spec`` at ``seed``, run to completion."""
    if spec.fleet is None:
        spec = set_path(spec, "telemetry.enabled", True)
        world = materialize(spec, seed, registry=MetricsRegistry())
        world.generate_pool_sync()
    else:
        world = materialize(spec, seed)
        world.run()
    return world


def assert_conserved(world):
    telemetry = world.telemetry
    sent = world.internet.datagrams_sent
    landed = (telemetry.value("net.datagrams_delivered")
              + telemetry.value("net.datagrams_dropped"))
    assert sent > 0
    assert sent == landed
    assert telemetry.value("net.datagrams_sent") == sent
    assert world.simulator.pending_events == 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", FLEETS)
def test_fleet_conserves_datagrams(workload, seed, exchanges):
    clients, rounds = SIZES[workload]["smoke"]
    world = _drained(fleet_spec(workload, clients, rounds), seed)
    assert_conserved(world)
    assert_no_exchange_alive(exchanges)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_golden_world_conserves_datagrams(name, seed, exchanges):
    world = _drained(SPECS[name](), seed)
    assert_conserved(world)
    assert_no_exchange_alive(exchanges)


#: The population points of the C1 and H1 smoke grids.
BENCH_POINTS = {f"{grid.name}:{point.key}": point.params["spec"]
                for grid in (bench_c1_chaos.SMOKE_GRID,
                             bench_c1_chaos.MTTR_SMOKE_GRID,
                             bench_h1_hierarchy.SMOKE_GRID)
                for point in grid}


@pytest.mark.parametrize("point", sorted(BENCH_POINTS))
def test_bench_smoke_world_conserves_datagrams(point, exchanges):
    world = _drained(BENCH_POINTS[point], SEEDS[0])
    assert_conserved(world)
    assert_no_exchange_alive(exchanges)
