"""Trace bytes are pinned across commits, not only within a process.

``fixtures/trace_digests.json`` was recorded from the tree before the
span fast path (cached address/name text, slotted scope, one-call
closed spans). Every world is rebuilt here at the same seeds and its
``Tracer.snapshot_json()`` digest compared, so a speed-up to tracing
cannot change what a trace says.
"""

import json

import pytest

from tests.golden.trace_worlds import FIXTURE_PATH, SEEDS, WORLDS, trace_digest


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE_PATH.read_text())


def test_fixture_covers_every_world_and_seed(fixture):
    assert sorted(fixture) == sorted(WORLDS)
    for name in WORLDS:
        assert sorted(fixture[name]) == sorted(str(seed) for seed in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORLDS))
def test_trace_matches_recorded_digest(fixture, name, seed):
    assert trace_digest(name, seed) == fixture[name][str(seed)], (
        f"{name} at seed {seed} traces to different bytes; if the change "
        f"is intentional, regenerate with "
        f"`PYTHONPATH=src python -m tests.golden.trace_worlds`")
