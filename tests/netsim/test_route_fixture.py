"""Every route matches the one networkx chose.

``fixtures/networkx_routes.json`` was recorded with networkx 3.6.1's
``nx.shortest_path(graph, src, dst, weight="weight")`` (its
bidirectional Dijkstra). For each topology it holds the node names,
the link edits in order (``[a, b, weight]`` adds a link, ``[a, b]``
removes one; ends are indices into ``nodes``) and the route of every
ordered node pair, ``None`` where the pair is disconnected. The
topologies are:

* every network the spec layer builds (the pool world, the default
  population layout and 1-8 explicit regions, the iterative hierarchy
  and the uniform backbone of the sharding harness);
* a few ``Topology.random_mesh`` seeds, all links equal;
* a seeded corpus of tie-heavy graphs (latencies in {0, 0.01, 0.02,
  0.03}, no jitter) with links removed and re-added, which reorders
  their ends' neighbours.

Equal-latency routes are the normal case in most of these, so the
fixture pins the tie-breaking, not just the path lengths.
"""

import json
import pathlib

import pytest

from repro.netsim.link import LinkProfile
from repro.netsim.topology import RoutingError, Topology
from repro.population.sharding import shard_invariant_spec
from repro.scenarios.presets import hierarchy_population_spec
from repro.scenarios.spec import (
    LinkSpec,
    RegionSpec,
    materialize,
    pool_spec,
    population_spec,
    set_path,
)
from repro.util.rng import RngRegistry

FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "networkx_routes.json")
    .read_text())
TOPOLOGIES = {entry["name"]: entry for entry in FIXTURE["topologies"]}

REGIONS = tuple(
    RegionSpec(name=f"r{i}", attach=attach,
               link=LinkSpec(latency=latency, jitter=jitter))
    for i, (attach, latency, jitter) in enumerate([
        ("eu-central", 0.002, 0.0005), ("us-east", 0.012, 0.003),
        ("asia-east", 0.030, 0.008), ("us-west", 0.002, 0.0005),
        ("eu-west", 0.012, 0.0), ("asia-south", 0.005, 0.001),
        ("eu-central", 0.030, 0.008), ("us-east", 0.0, 0.0)]))


def _population(**kwargs):
    return population_spec(num_clients=2, rounds=1, **kwargs)


SPEC_WORLDS = {
    "pool": pool_spec,
    "population": _population,
    **{f"regions-{k}": (lambda k=k: set_path(_population(),
                                             "network.regions",
                                             REGIONS[:k]))
       for k in range(1, 9)},
    "hierarchy-population": lambda: hierarchy_population_spec(
        num_clients=2, rounds=1),
    "uniform-backbone": lambda: shard_invariant_spec(2),
}


def replay(entry) -> Topology:
    """Rebuild a fixture topology through the public edit API."""
    topology = Topology(RngRegistry(0))
    nodes = entry["nodes"]
    for name in nodes:
        topology.add_node(name)
    for edit in entry["links"]:
        a, b = nodes[edit[0]], nodes[edit[1]]
        if len(edit) == 3:
            topology.add_link(a, b, LinkProfile(latency=edit[2]))
        else:
            topology.remove_link(a, b)
    return topology


def assert_routes(topology: Topology, entry) -> None:
    nodes = entry["nodes"]
    pairs = [(src, dst) for src in nodes for dst in nodes if src != dst]
    assert len(pairs) == len(entry["routes"])
    for (src, dst), expected in zip(pairs, entry["routes"]):
        if expected is None:
            with pytest.raises(RoutingError):
                topology.route_nodes(src, dst)
            continue
        route = [nodes[int(i)] for i in expected.split()]
        assert topology.route_nodes(src, dst) == route, (src, dst)


def test_fixture_covers_ties_and_disconnection():
    names = list(TOPOLOGIES)
    assert set(SPEC_WORLDS) <= set(names)
    assert sum(name.startswith("ties-") for name in names) >= 100
    assert sum(name.startswith("random-mesh-") for name in names) >= 5
    assert any(route is None
               for entry in FIXTURE["topologies"]
               for route in entry["routes"])


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_replayed_topology_routes_like_networkx(name):
    entry = TOPOLOGIES[name]
    assert_routes(replay(entry), entry)


@pytest.mark.parametrize("name", sorted(SPEC_WORLDS))
def test_spec_world_routes_like_networkx(name):
    topology = materialize(SPEC_WORLDS[name](), 1).internet.topology
    entry = TOPOLOGIES[name]
    assert topology.nodes == entry["nodes"]
    assert_routes(topology, entry)
