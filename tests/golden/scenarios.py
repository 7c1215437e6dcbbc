"""Canonical scenarios pinned by the golden-equivalence suite.

Each scenario is a representative trial from the benchmark families the
ROADMAP tracks — E2 (corruption bound), E6 (empty-answer DoS under
loss), P1 (population fleet) and P2 (per-region fleets under an on-path
attacker) — executed at fixed seeds. Their complete outputs (every
metric, plus the telemetry ``snapshot_json`` where the world has a
registry) were recorded by :mod:`tests.golden.generate_fixtures`
*before* the netsim fast-path optimizations landed, so any drift in RNG
draw order, delivery semantics, combine policy or telemetry encoding
shows up as a byte-level fixture mismatch.

Regenerate (only when an *intentional* semantic change lands) with::

    PYTHONPATH=src python -m tests.golden.generate_fixtures
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Tuple

from repro.campaign.trials import spec_trial
from repro.scenarios.spec import (
    AttackSpec,
    FaultSpec,
    LinkSpec,
    RegionSpec,
    apply_paths,
    pool_spec,
    population_spec,
    set_path,
)

#: Seeds every scenario is pinned at.
SEEDS: Tuple[int, ...] = (101, 202, 303)

_FORGED = tuple(f"203.0.113.{i + 1}" for i in range(4))

_REGIONS = (
    RegionSpec(name="eu", attach="eu-central",
               link=LinkSpec(latency=0.002, jitter=0.0005)),
    RegionSpec(name="us", attach="us-east",
               link=LinkSpec(latency=0.012, jitter=0.003)),
    RegionSpec(name="asia", attach="asia-east",
               link=LinkSpec(latency=0.030, jitter=0.008),
               fault=FaultSpec(loss_rate=0.05)),
)

_ONPATH = (AttackSpec.of("mitm", at="region:eu", mode="poison",
                         forged=tuple(f"203.0.113.{101 + i}"
                                      for i in range(4))),)


def _normalise(outcome: Any) -> Dict[str, Any]:
    """Render a trial outcome as the JSON-able payload the fixture pins.

    Trials return either a metrics mapping or ``(metrics, telemetry
    snapshot string)``; the snapshot is kept verbatim so the comparison
    is byte-exact, not merely structurally equal.
    """
    telemetry = None
    if isinstance(outcome, tuple):
        outcome, telemetry = outcome
    payload: Dict[str, Any] = {
        "metrics": {name: float(value) for name, value in outcome.items()},
    }
    if telemetry is not None:
        payload["telemetry"] = telemetry
    return payload


def _e2_corruption_bound(seed: int) -> Dict[str, Any]:
    spec = apply_paths(pool_spec(num_providers=5, pool_size=24,
                                 answers_per_query=4),
                       {"provider.corrupted": 2, "provider.forged": _FORGED})
    return _normalise(spec_trial({"spec": spec}, seed))


def _e6_dos_under_loss(seed: int) -> Dict[str, Any]:
    spec = apply_paths(pool_spec(num_providers=3, pool_size=20,
                                 answers_per_query=4, loss_rate=0.2),
                       {"provider.corrupted": 1, "provider.behavior": "empty",
                        "pool.min_answers": 2})
    return _normalise(spec_trial({"spec": spec}, seed))


def _p1_population(seed: int) -> Dict[str, Any]:
    spec = population_spec(num_clients=40, rounds=3, corrupted=1,
                           forged=_FORGED, churn_rate=0.2, arrival="poisson")
    return _normalise(spec_trial({"spec": spec}, seed))


def _p2_regions(seed: int) -> Dict[str, Any]:
    spec = population_spec(num_clients=30, rounds=2)
    spec = set_path(spec, "network.regions", _REGIONS)
    spec = set_path(spec, "attacks", _ONPATH)
    return _normalise(spec_trial({"spec": spec}, seed))


SCENARIOS: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "e2_corruption_bound": _e2_corruption_bound,
    "e6_dos_under_loss": _e6_dos_under_loss,
    "p1_population": _p1_population,
    "p2_regions": _p2_regions,
}


def compute_all() -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Run every scenario at every pinned seed."""
    return {
        name: {str(seed): scenario(seed) for seed in SEEDS}
        for name, scenario in SCENARIOS.items()
    }


def canonical_json(payload: Any) -> str:
    """The byte-exact rendering fixtures are stored and compared in."""
    return json.dumps(payload, sort_keys=True, indent=1)
