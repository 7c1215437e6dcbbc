"""Every named spec serializes to the bytes recorded in
``fixtures/spec_bytes.json`` (see :mod:`tests.scenarios.record_spec_bytes`).

Campaign fingerprints, cache keys and result files hash a spec's
``to_json()``; a change to how spec classes are declared must not move
a single byte of it.
"""

import json

import pytest

from repro.scenarios.spec import ScenarioSpec
from tests.scenarios.record_spec_bytes import FIXTURE_PATH, digest, specs

RECORDED = json.loads(FIXTURE_PATH.read_text())
NAMED = specs()


def test_fixture_covers_every_named_spec():
    assert sorted(NAMED) == sorted(RECORDED)


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_spec_bytes_match_fixture(key):
    spec = NAMED[key]()
    assert digest(spec) == RECORDED[key]
    # The bytes also survive a round trip through the parser.
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    assert digest(ScenarioSpec.from_json(spec.to_json())) == RECORDED[key]
