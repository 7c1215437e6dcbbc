"""E7's metrics match ``fixtures/timeshift_records.json`` exactly
(see :mod:`tests.campaign.record_timeshift_records`)."""

import json

import pytest

from repro.campaign import timeshift_trial
from tests.campaign.record_timeshift_records import FIXED, FIXTURE_PATH, SEEDS

RECORDED = json.loads(FIXTURE_PATH.read_text())


def test_fixture_covers_every_configuration_and_seed():
    from repro.campaign.trials import TIMESHIFT_CONFIGURATIONS
    assert sorted(RECORDED) == sorted(TIMESHIFT_CONFIGURATIONS)
    for by_seed in RECORDED.values():
        assert sorted(by_seed) == sorted(str(seed) for seed in SEEDS)


@pytest.mark.parametrize("configuration", sorted(RECORDED))
@pytest.mark.parametrize("seed", SEEDS)
def test_timeshift_trial_matches_fixture(configuration, seed):
    metrics = timeshift_trial(dict(FIXED, configuration=configuration), seed)
    assert metrics == RECORDED[configuration][str(seed)]
