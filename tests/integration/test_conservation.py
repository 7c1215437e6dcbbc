"""Datagram conservation over whole worlds.

Every datagram the fabric accepts lands exactly once: after a drained
run, the datagrams counted at send time equal the ``net.*`` deliveries
plus drops counted at landing (duplicate copies are neither), and no
event is left on the heap. Checked on smoke-size versions of the perf
workloads' fleets and on the golden scenarios' worlds.
"""

import pytest

from benchmarks.perf.unit import SIZES, fleet_spec
from repro.scenarios import materialize, set_path
from repro.telemetry.registry import MetricsRegistry
from tests.golden.scenarios import SPECS

SEEDS = (1, 2, 3)

FLEETS = ("udp-fleet", "doh-fleet", "iterative-chaos")


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
def test_fleet_conserves_datagrams(workload, seed):
    clients, rounds = SIZES[workload]["smoke"]
    assert_conserved(_drained(fleet_spec(workload, clients, rounds), seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_golden_world_conserves_datagrams(name, seed):
    assert_conserved(_drained(SPECS[name](), seed))
