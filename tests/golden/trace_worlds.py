"""Small traced worlds whose trace bytes are pinned across commits.

Each world is built from its spec and seed, run under a fresh
:class:`~repro.telemetry.trace.Tracer`, and reduced to the sha256 of
``Tracer.snapshot_json()``. ``fixtures/trace_digests.json`` holds those
digests; ``test_trace_digests.py`` rebuilds the worlds and compares, so
a change that makes tracing cheaper cannot quietly change what a trace
says. Regenerate (only when trace content changes on purpose) with::

    PYTHONPATH=src python -m tests.golden.trace_worlds
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

from repro.chaos import CacheWipe, ChaosSpec, Overload, ServerOutage
from repro.dns.hierarchy import HierarchySpec
from repro.scenarios.spec import (
    ResolverSpec,
    ScenarioSpec,
    materialize,
    population_spec,
    set_path,
)
from repro.telemetry.trace import Tracer, use_tracer

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "trace_digests.json"

SEEDS = (5, 6)


def udp_fleet() -> ScenarioSpec:
    """A forwarding fleet over plain DNS, with loss so that dropped
    flights and retried attempts appear in the trace."""
    return population_spec(num_clients=12, rounds=2, corrupted=1,
                           forged=("203.0.113.1", "203.0.113.2"),
                           loss_rate=0.05)


def doh_fleet() -> ScenarioSpec:
    """The paper's DoH path: TLS handshakes, then DNS inside HTTP."""
    return set_path(population_spec(num_clients=3, rounds=1, corrupted=1),
                    "fleet.transport", "doh")


def iterative_chaos() -> ScenarioSpec:
    """Providers walking root-TLD-zone referrals under outage, cache
    wipe and overload (the ``iterative-chaos`` timeline, scaled down)."""
    clients = 40
    spec = population_spec(num_clients=clients, rounds=6, pool_ttl=1,
                           min_answers=2)
    spec = set_path(spec, "provider.serve", "dns")
    spec = set_path(spec, "provider.resolver", ResolverSpec(
        mode="iterative",
        hierarchy=HierarchySpec(root_ttl=5, tld_ttl=5, glue=False)))
    return set_path(spec, "chaos", ChaosSpec(events=(
        ServerOutage(scope="providers", fraction=0.3, at=20, duration=20),
        CacheWipe(at=50),
        Overload(scope="providers", at=60, duration=20,
                 qps=clients / 20, queue_depth=16))))


WORLDS: Dict[str, Callable[[], ScenarioSpec]] = {
    "udp-fleet": udp_fleet,
    "doh-fleet": doh_fleet,
    "iterative-chaos": iterative_chaos,
}


def run_world(name: str, seed: int):
    """Build and run one world at ``seed`` under whatever tracer is
    installed (none: an untraced run)."""
    world = materialize(WORLDS[name](), seed)
    world.run()
    return world


def trace_digest(name: str, seed: int) -> str:
    tracer = Tracer()
    with use_tracer(tracer):
        run_world(name, seed)
    return hashlib.sha256(tracer.snapshot_json().encode()).hexdigest()


def compute_all() -> Dict[str, Dict[str, str]]:
    return {name: {str(seed): trace_digest(name, seed) for seed in SEEDS}
            for name in WORLDS}


def main() -> None:
    FIXTURE_PATH.write_text(
        json.dumps(compute_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
