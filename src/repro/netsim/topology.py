"""Routed topology of the simulated Internet.

Nodes are named routers/vantage points ("eu-west", "us-east", ...);
hosts attach to a node. Routing is shortest-path by expected latency,
found by a bidirectional Dijkstra over an insertion-ordered adjacency
dict and cached until the topology changes.

The topology is what gives the paper's threat model its teeth: an
on-path attacker controls a *subset of links*, so whether it can touch a
flow depends on which route the flow takes — exactly the "attacker
controls some but not all paths" assumption in the paper.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, List, Optional, Tuple

from repro.netsim.link import FaultModel, Link, LinkProfile
from repro.util.rng import RngRegistry


class RoutingError(RuntimeError):
    """Raised when no route exists between two attachment points."""


class Topology:
    """A graph of named nodes joined by :class:`Link` objects.

    >>> from repro.util.rng import RngRegistry
    >>> topo = Topology(RngRegistry(1))
    >>> topo.add_node("a"); topo.add_node("b")
    >>> _ = topo.add_link("a", "b", LinkProfile.lan())
    >>> [link.name for link in topo.route("a", "b")]
    ['a--b']
    """

    def __init__(self, rng_registry: Optional[RngRegistry] = None) -> None:
        # node -> {neighbour: weight}, both in insertion order: the
        # neighbour order decides between equal-latency routes.
        self._adj: Dict[str, Dict[str, float]] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._rng_registry = rng_registry or RngRegistry(0)
        self._route_cache: Dict[Tuple[str, str], List[Link]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone edit counter: bumped whenever nodes, links or link
        fault models change. The :class:`~repro.netsim.internet.Internet`
        keys its compiled flight plans on it, so any topology edit
        invalidates every cached plan."""
        return self._version

    @property
    def nodes(self) -> List[str]:
        """All node names, sorted for determinism."""
        return sorted(self._adj)

    @property
    def links(self) -> List[Link]:
        """All links, sorted by canonical name for determinism."""
        return sorted(self._links.values(), key=lambda link: link.name)

    def add_node(self, name: str) -> None:
        """Add a routing node; idempotent."""
        self._adj.setdefault(name, {})
        self._invalidate_routes()

    def _invalidate_routes(self) -> None:
        self._route_cache.clear()
        self._version += 1

    def has_node(self, name: str) -> bool:
        return name in self._adj

    def add_link(self, a: str, b: str, profile: LinkProfile) -> Link:
        """Join nodes ``a`` and ``b`` with a link; creates nodes if needed."""
        key = self._key(a, b)
        if key in self._links:
            raise ValueError(f"link {a}--{b} already exists")
        rng = self._rng_registry.stream("link", *key)
        link = Link(a, b, profile, rng)
        self._links[key] = link
        # Weight by expected latency so routing prefers fast paths.
        weight = profile.latency + profile.jitter / 2.0
        self._adj.setdefault(a, {})[b] = weight
        self._adj.setdefault(b, {})[a] = weight
        self._invalidate_routes()
        return link

    def link_between(self, a: str, b: str) -> Optional[Link]:
        """The direct link between two nodes, if any."""
        return self._links.get(self._key(a, b))

    def set_fault_model(self, a: str, b: str,
                        model: Optional[FaultModel]) -> Link:
        """Install (or clear, with ``None``) a fault model on a link.

        The model's randomness comes from the registry's dedicated
        ``("fault", a, b)`` stream, so fault decisions are reproducible
        and never perturb the link's intrinsic latency/loss stream.
        """
        key = self._key(a, b)
        link = self._links.get(key)
        if link is None:
            raise KeyError(f"no link {a}--{b}")
        rng = (self._rng_registry.stream("fault", *key)
               if model is not None and model.active else None)
        link.install_fault(model, rng)
        # Routes are unchanged, but compiled flight plans may have
        # classified the link's dynamics — force a recompile.
        self._version += 1
        return link

    def remove_link(self, a: str, b: str) -> None:
        """Remove a link (e.g. to simulate a partition)."""
        key = self._key(a, b)
        if key not in self._links:
            raise KeyError(f"no link {a}--{b}")
        del self._links[key]
        del self._adj[a][b], self._adj[b][a]
        self._invalidate_routes()

    def route(self, src: str, dst: str) -> List[Link]:
        """Shortest-latency route as an ordered list of links.

        An empty list means ``src == dst`` (loopback delivery).
        Raises :class:`RoutingError` when the nodes are disconnected.
        """
        if src == dst:
            return []
        cache_key = (src, dst)
        cached = self._route_cache.get(cache_key)
        if cached is not None:
            return cached
        path_nodes = self._shortest_path(src, dst)
        links = [
            self._links[self._key(a, b)]
            for a, b in zip(path_nodes, path_nodes[1:])
        ]
        self._route_cache[cache_key] = links
        return links

    def route_nodes(self, src: str, dst: str) -> List[str]:
        """Node names along the route, inclusive of both ends, read off
        :meth:`route`'s cached links."""
        nodes = [src]
        for link in self.route(src, dst):
            a, b = link.ends
            nodes.append(b if a == nodes[-1] else a)
        return nodes

    def _shortest_path(self, src: str, dst: str) -> List[str]:
        """The one place the repository searches for a path.

        A bidirectional Dijkstra that breaks ties exactly as networkx
        3.6's ``bidirectional_dijkstra`` (what ``nx.shortest_path``
        runs for one weighted pair) does: the directions alternate,
        forward first; heap entries are ``(dist, counter, node)`` with
        ``src`` at counter 0 and ``dst`` at 1; a neighbour is relaxed
        only on a strictly shorter distance; the meeting node changes
        only for a strictly shorter total; and the search stops at the
        first node final in both directions.
        """
        adj = self._adj
        if src not in adj or dst not in adj:
            raise RoutingError(f"unknown node in route {src} -> {dst}")
        final = (set(), set())
        seen = ({src: 0}, {dst: 0})
        preds = ({src: None}, {dst: None})
        fringe = ([(0, 0, src)], [(0, 1, dst)])
        counter = itertools.count(2)
        meet, best = None, 0.0
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, node = heapq.heappop(fringe[direction])
            if node in final[direction]:
                continue
            final[direction].add(node)
            if node in final[1 - direction]:
                path = [meet]
                while preds[0][path[0]] is not None:
                    path.insert(0, preds[0][path[0]])
                while preds[1][path[-1]] is not None:
                    path.append(preds[1][path[-1]])
                return path
            ours, theirs = seen[direction], seen[1 - direction]
            for neighbour, weight in adj[node].items():
                length = dist + weight
                if neighbour in final[direction] or (
                        neighbour in ours and length >= ours[neighbour]):
                    continue
                ours[neighbour] = length
                heapq.heappush(fringe[direction],
                               (length, next(counter), neighbour))
                preds[direction][neighbour] = node
                if neighbour in theirs:
                    total = length + theirs[neighbour]
                    if meet is None or best > total:
                        meet, best = neighbour, total
        raise RoutingError(f"no route from {src} to {dst}")

    def expected_latency(self, src: str, dst: str) -> float:
        """Sum of expected one-way latencies along the route."""
        return sum(
            link.profile.latency + link.profile.jitter / 2.0
            for link in self.route(src, dst)
        )

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # ------------------------------------------------------------------
    # Prefab topologies used by the scenario builders.
    # ------------------------------------------------------------------

    @classmethod
    def star(cls, center: str, leaves: List[str],
             profile: Optional[LinkProfile] = None,
             rng_registry: Optional[RngRegistry] = None) -> "Topology":
        """A star: every leaf connects to ``center``."""
        topo = cls(rng_registry)
        topo.add_node(center)
        for leaf in leaves:
            topo.add_link(center, leaf, profile or LinkProfile.continental())
        return topo

    @classmethod
    def global_backbone(cls, rng_registry: Optional[RngRegistry] = None,
                        profile: Optional[LinkProfile] = None) -> "Topology":
        """A small model of the public Internet's regional structure.

        Six regions joined by a realistic mix of continental and
        trans-oceanic hops. Scenario builders attach clients, resolvers
        and nameservers to these regions.

        ``profile`` overrides *every* backbone hop with one uniform
        link — determinism harnesses use a zero-jitter profile here so
        cross-shard comparisons see identical transit draws.
        """
        topo = cls(rng_registry)
        regions = ["us-west", "us-east", "eu-west", "eu-central", "asia-east", "asia-south"]
        for region in regions:
            topo.add_node(region)
        continental = profile or LinkProfile.continental()
        oceanic = profile or LinkProfile.transoceanic()
        topo.add_link("us-west", "us-east", continental)
        topo.add_link("eu-west", "eu-central", continental)
        topo.add_link("asia-east", "asia-south", continental)
        topo.add_link("us-east", "eu-west", oceanic)
        topo.add_link("us-west", "asia-east", oceanic)
        topo.add_link("eu-central", "asia-south", oceanic)
        topo.add_link("eu-west", "asia-east", oceanic)
        return topo

    @classmethod
    def random_mesh(cls, node_count: int, extra_edges: int, seed: int,
                    rng_registry: Optional[RngRegistry] = None) -> "Topology":
        """A random connected mesh: a spanning tree plus random chords.

        Used by property tests and robustness benchmarks.
        """
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        topo = cls(rng_registry)
        rng = random.Random(seed)
        names = [f"n{i}" for i in range(node_count)]
        for name in names:
            topo.add_node(name)
        # Spanning tree: attach each node to a random earlier one.
        for index in range(1, node_count):
            parent = names[rng.randrange(index)]
            topo.add_link(names[index], parent, LinkProfile.continental())
        # Extra chords for path diversity (need at least two nodes).
        attempts = 0
        added = 0
        if node_count < 2:
            return topo
        while added < extra_edges and attempts < extra_edges * 20:
            attempts += 1
            a, b = rng.sample(names, 2)
            if topo.link_between(a, b) is None:
                topo.add_link(a, b, LinkProfile.continental())
                added += 1
        return topo
