"""Architecture rules as one table, checked by tier-1.

Each row is a grep gate over the source tree: a pattern, the paths it
searches (directories or single files), the files or directories
inside them it exempts, and the message printed when it fails.
``test_tree_obeys_rule`` runs every row over the tree; a second test
feeds each row a line that breaks it, so a row whose pattern or scope
rots into matching nothing fails here instead of passing silently.
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Rule:
    name: str
    #: Python regex matched against each source line.
    pattern: str
    #: Repository-relative directories (their ``*.py`` files) or single
    #: files searched.
    paths: Tuple[str, ...]
    message: str
    #: Files or directories inside ``paths`` the rule exempts.
    allowed: Tuple[str, ...] = ()

    def violations(self, path: str, text: str) -> List[str]:
        """``path:line: text`` for every line of ``text`` that breaks
        the rule, if ``path`` is in its scope."""
        if _under(path, self.allowed) or not _under(path, self.paths):
            return []
        compiled = re.compile(self.pattern)
        return [f"{path}:{number}: {line}"
                for number, line in enumerate(text.splitlines(), 1)
                if compiled.search(line)]


def _under(path: str, prefixes: Tuple[str, ...]) -> bool:
    return any(path == prefix or path.startswith(prefix + "/")
               for prefix in prefixes)


#: Everything the dependency and graph-search rows search.
ALL_CODE = ("src", "tests", "examples", "benchmarks")

RULES = (
    # Speed comes from freeing objects, not from steering the cyclic
    # collector: finished exchanges die by refcount (see the
    # netsim/transport.py lifetime contract), recorded spans are rows
    # of atoms (telemetry/trace.py), and the repository benchmark
    # measures with the collector at its defaults. Disabling, freezing,
    # re-thresholding or forcing collections in src/ would hide a
    # reintroduced reference cycle instead of fixing it.
    Rule(name="collector-tuning",
         pattern=r"gc\.(disable|freeze|set_threshold|collect)\b",
         paths=("src",),
         message="collector tuning in src/: break the reference cycle "
                 "instead (tests/netsim/test_exchange_lifetime.py)"),
    # Trace span IDs are counter-derived, never random: the tracing
    # layer importing util.rng, random or uuid would entangle trace
    # identity with simulation randomness and break the bit-identical
    # serial == sharded trace contract.
    Rule(name="span-identity",
         pattern=r"^\s*(from repro\.util|import repro\.util|import random"
                 r"|from random|import uuid|from uuid)",
         paths=("src/repro/telemetry",),
         message="telemetry layer reaching for randomness: span IDs must "
                 "stay counter-derived (deterministic)"),
    # The client round loop lives in exactly one place: the pure
    # advance_round function in population/fleet.py. Its decision
    # markers reappearing anywhere else in src/ means someone
    # re-inlined round logic a shard world would then diverge from.
    Rule(name="round-loop",
         pattern=r"rounds_done %|rng\.select\.choice|rng\.churn\.random",
         paths=("src",),
         allowed=("src/repro/population/fleet.py",),
         message="round-loop logic outside population/fleet.py: drive "
                 "rounds through advance_round() instead"),
    # One definition per setting: FleetSpec is the fleet's
    # configuration (ClientFleet and advance_round read it),
    # ResolverSpec is a ResolverConfig plus the world's resolution
    # mode, and DoHProviderProfile is the spec ProviderSpec holds. A
    # runtime copy of a spec, its field-by-field converters, or a
    # second statement of the quorum gate's empty-answer rule
    # (quorum_gate in core/pool.py derives it from min_answers) would
    # be a second definition to keep in step.
    Rule(name="config-mirror",
         pattern=r"class FleetConfig|class ProfileSpec|def to_config"
                 r"|def from_config|ignore_empty_answers|def from_model",
         paths=("src",),
         message="a runtime mirror of a scenario spec under src/: read "
                 "the spec itself instead"),
    # Per-client randomness is parked between rounds: a fleet client's
    # streams are a seed and a word count in its row of the fleet's
    # columns, and a round in flight draws through ParkedStream
    # objects rebuilt from the two. A memoised generator (the
    # registry's .stream(...)) lives as long as the registry; five per
    # client would add 43.6 MB to the 3000-client udp-fleet world,
    # which holds 2.7 MB after materialize (tracemalloc, seed 42).
    Rule(name="client-stream",
         pattern=r"\.stream\(",
         paths=("src/repro/population/fleet.py",),
         message="a memoised per-client generator in population/fleet.py: "
                 "keep the stream's seed and word count in the client's "
                 "row"),
    # Between rounds a fleet client is its host plus one row of the
    # fleet's columns; its clock, SNTP client, round state and streams
    # exist only while a round is in flight. A per-client holder
    # object (the deleted _FleetClient and the fleet's list of them) or
    # a per-client clock closure over the simulator brings back what a
    # full collection rescans: 20.3 gc-tracked objects and 2.3 KB per
    # client after materialize in the 3000-client udp-fleet world,
    # against 5.3 and 0.9 KB as rows.
    Rule(name="fleet-row",
         pattern=r"class _FleetClient|self\._clients\b"
                 r"|lambda: self\._simulator\.now",
         paths=("src/repro/population/fleet.py",),
         message="a per-client holder in population/fleet.py: keep "
                 "between-round state in the fleet's columns"),
    # The per-packet fast path must never search the graph: every
    # shortest-path computation belongs to Topology's route caches,
    # and the search itself (a port of networkx's bidirectional
    # Dijkstra, pinned by tests/netsim/fixtures/networkx_routes.json)
    # lives only in topology.py. A call elsewhere reintroduces
    # per-datagram graph searches.
    Rule(name="shortest-path",
         pattern=r"_shortest_path\(",
         paths=ALL_CODE,
         allowed=("src/repro/netsim/topology.py",),
         message="graph search outside netsim/topology.py: route through "
                 "Topology.route()/route_nodes()"),
    # The runtime depends on cryptography alone (pyproject.toml);
    # importing networkx, scipy or numpy brings back a dependency stack
    # it does without.
    Rule(name="removed-dependency",
         pattern=r"^\s*(import|from)\s+(networkx|scipy|numpy)\b",
         paths=ALL_CODE,
         message="a removed dependency imported: use the standard library"),
    # Virtual time is the simulation's only clock. The only sanctioned
    # wall-clock reads in src/repro are the adaptive executors'
    # calibration probes (they time the host, not the simulation);
    # wall time per layer is measured from outside by benchmarks/perf.
    # A wall-clock read anywhere else breaks determinism: trace
    # timestamps, spans and metrics must be virtual.
    Rule(name="wall-clock",
         pattern=r"time\.time\(|perf_counter",
         paths=("src/repro",),
         allowed=("src/repro/campaign/runner.py",
                  "src/repro/population/sharding.py"),
         message="wall-clock read outside the sanctioned sites: use "
                 "virtual time (Simulator.now / tracer.now()) instead"),
    # Infrastructure failure is declared, never improvised: host
    # crash/restart switches and partition topology edits belong to
    # the chaos controller (repro/chaos/) and the netsim layer that
    # implements them. Any other src/ caller flipping hosts or ripping
    # out links is an unattributable failure no ChaosSpec (or its
    # telemetry) can see.
    Rule(name="chaos-mutation",
         pattern=r"\.set_host_(down|up)\(|\.remove_link\(",
         paths=("src",),
         allowed=("src/repro/chaos", "src/repro/netsim"),
         message="infrastructure mutation outside repro/chaos + "
                 "repro/netsim: declare a ChaosSpec event (ServerOutage/"
                 "Partition) instead"),
    # One transport exchange is one object: PendingExchange (or its
    # DatagramExchange subclass) carries its own record, draws its own
    # TXIDs and schedules its own timeout event per attempt. A report
    # object, per-attempt info object or timer beside it is a second
    # allocation per exchange, ~12k exchanges per udp-fleet run. The
    # simulator module keeps the unused Timer class, which the
    # benchmark's layer profiler patches by name.
    Rule(name="exchange-object",
         pattern=r"\b(Timer|ExchangeReport|AttemptInfo)\b",
         paths=("src",),
         allowed=("src/repro/netsim/simulator.py",),
         message="a second object per transport exchange: keep its "
                 "record, attempt and timeout on the exchange "
                 "(netsim/transport.py)"),
)

#: One line per rule that breaks it, at a path inside its scope.
SEEDED = {
    "collector-tuning": ("src/repro/netsim/simulator.py", "    gc.freeze()"),
    "span-identity": ("src/repro/telemetry/trace.py", "import random"),
    "round-loop": ("src/repro/population/sharding.py",
                   "        pick = rng.select.choice(pool)"),
    "config-mirror": ("src/repro/scenarios/spec.py", "class FleetConfig:"),
    "client-stream": ("src/repro/population/fleet.py",
                      '        select = self._rng.stream("select")'),
    "fleet-row": ("src/repro/population/fleet.py", "class _FleetClient:"),
    # Split so this file does not break the row it seeds.
    "shortest-path": ("src/repro/netsim/internet.py",
                      "        path = self._topology._shortest_"
                      "path(src, dst)"),
    "removed-dependency": ("tests/netsim/test_topology.py",
                           "import networkx as nx"),
    "wall-clock": ("src/repro/netsim/simulator.py",
                   "        started = time.perf_counter()"),
    "chaos-mutation": ("src/repro/scenarios/spec.py",
                       "        world.internet.set_host_down(host)"),
    "exchange-object": ("src/repro/netsim/transport.py",
                        "        self._timer = Timer(simulator, "
                        "self._on_timeout)"),
}


def _sources(rule: Rule) -> Iterator[Tuple[str, str]]:
    for prefix in rule.paths:
        root = ROOT / prefix
        for path in ([root] if root.is_file()
                     else sorted(root.rglob("*.py"))):
            yield path.relative_to(ROOT).as_posix(), path.read_text()


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_tree_obeys_rule(rule):
    offenders = [line for path, text in _sources(rule)
                 for line in rule.violations(path, text)]
    assert not offenders, rule.message + "\n" + "\n".join(offenders)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_rule_catches_a_seeded_violation(rule):
    path, line = SEEDED[rule.name]
    assert (ROOT / path).is_file()
    assert rule.violations(path, f"x = 1\n{line}\n") == [
        f"{path}:2: {line}"]


def test_every_rule_has_a_seeded_violation():
    assert sorted(SEEDED) == sorted(rule.name for rule in RULES)


def test_rules_stay_inside_their_scope():
    rules = {rule.name: rule for rule in RULES}
    collector = rules["collector-tuning"]
    identity = rules["span-identity"]
    round_loop = rules["round-loop"]
    client_stream = rules["client-stream"]
    fleet_row = rules["fleet-row"]
    assert not collector.violations("tests/netsim/test_x.py", "gc.collect()")
    assert not identity.violations("src/repro/netsim/transport.py",
                                   "import random")
    assert not collector.violations("src/repro/telemetry/trace.py",
                                    "_is_tracked = gc.is_tracked")
    # The one file the round loop may live in, and the single-file
    # scopes of the fleet's own rules.
    assert not round_loop.violations("src/repro/population/fleet.py",
                                     "rng.select.choice(pool)")
    assert not client_stream.violations("src/repro/population/sharding.py",
                                        'rng.stream("select")')
    assert not fleet_row.violations("src/repro/population/fleet_x.py",
                                    "class _FleetClient:")
    # Directory exemptions cover their subtrees; the sanctioned
    # wall-clock and graph-search sites are single files.
    assert not rules["chaos-mutation"].violations(
        "src/repro/chaos/controller.py", "internet.set_host_down(h)")
    assert rules["chaos-mutation"].violations(
        "src/repro/chaosx.py", "internet.set_host_down(h)")
    assert not rules["wall-clock"].violations(
        "src/repro/campaign/runner.py", "t = time.perf_counter()")
    assert rules["wall-clock"].violations(
        "src/repro/campaign/executors.py", "t = time.perf_counter()")
    assert not rules["shortest-path"].violations(
        "src/repro/netsim/topology.py", "p = self._shortest_" "path(a, b)")
    assert not rules["exchange-object"].violations(
        "src/repro/netsim/simulator.py", "class Timer:")
    # The rules file searches itself without matching its seeded lines.
    own = Path(__file__).resolve()
    path = own.relative_to(ROOT).as_posix()
    for name in ("shortest-path", "removed-dependency"):
        assert not rules[name].violations(path, own.read_text())
