"""Golden-equivalence suite: the fast path must not change science.

The fixtures under ``fixtures/`` hold the complete outputs of
representative E2/E6/P1/P2 trials (metrics plus telemetry
``snapshot_json``) recorded from the tree *before* the netsim fast-path
optimizations (flight-plan caching, slotted core objects, memoized DNS
codec, chunked campaign sharding). Every scenario is replayed here at
the same seeds and compared byte-for-byte, and a small campaign is run
serially and in parallel to pin the sharded path to the same records.
"""

import json
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.scenarios.spec import pool_spec

from tests.golden.scenarios import SCENARIOS, SEEDS, canonical_json

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_netsim.json"


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_pre_optimization_fixture(fixture, name, seed):
    recorded = fixture[name][str(seed)]
    computed = SCENARIOS[name](seed)
    assert canonical_json(computed) == canonical_json(recorded), (
        f"{name} at seed {seed} drifted from the pre-optimization fixture; "
        f"if the change is intentional, regenerate with "
        f"`PYTHONPATH=src python -m tests.golden.generate_fixtures`")


@pytest.mark.parametrize("executor", ["processes"])
def test_every_executor_campaign_matches_serial_records(fixture, executor):
    """The chunked process path must reassemble the exact serial
    records — and both must still produce the fixture's E2 numbers."""
    grid = ParameterGrid.over_spec(
        pool_spec(num_providers=5, pool_size=24, answers_per_query=4),
        {"provider.corrupted": (0, 2)},
        fixed={"provider.forged": tuple(f"203.0.113.{i + 1}"
                                        for i in range(4))},
        name="golden_serial_parallel",
    )
    serial = CampaignRunner(spec_trial, trials_per_point=2,
                            base_seed=7, workers=0).run(grid)
    parallel = CampaignRunner(spec_trial, trials_per_point=2,
                              base_seed=7, workers=3,
                              executor=executor).run(grid)
    assert [r.metrics for r in serial.records] \
        == [r.metrics for r in parallel.records]
    assert [(r.point_key, r.trial, r.seed) for r in serial.records] \
        == [(r.point_key, r.trial, r.seed) for r in parallel.records]
    assert serial.to_json()["results"] == parallel.to_json()["results"]
