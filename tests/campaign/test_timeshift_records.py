"""E7's metrics match ``fixtures/timeshift_records.json`` exactly
(see :mod:`tests.campaign.record_timeshift_records`)."""

import json

import pytest

from tests.campaign.record_timeshift_records import (
    CONFIGURATIONS,
    FIXTURE_PATH,
    SEEDS,
    e7_metrics,
)

RECORDED = json.loads(FIXTURE_PATH.read_text())


def test_fixture_covers_every_configuration_and_seed():
    assert sorted(RECORDED) == sorted(CONFIGURATIONS)
    for by_seed in RECORDED.values():
        assert sorted(by_seed) == sorted(str(seed) for seed in SEEDS)


@pytest.mark.parametrize("configuration", sorted(RECORDED))
@pytest.mark.parametrize("seed", SEEDS)
def test_timeshift_trial_matches_fixture(configuration, seed):
    assert e7_metrics(configuration, seed) == RECORDED[configuration][str(seed)]
