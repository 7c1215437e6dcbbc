"""Subprocess driver for the kill-and-resume tests (and the CI
forced-interrupt smoke).

Runs one journaled campaign to completion and writes its records as
canonical JSON. The trial function logs every *execution* (not resumed
records) to ``RESUME_LOG`` and sleeps ``RESUME_SLEEP`` seconds, giving
the parent test a window to SIGKILL the process mid-campaign; both
knobs ride environment variables so they never touch point identities,
seeds, or the campaign fingerprint.

Usage::

    python -m tests.campaign._resume_driver <journal_dir> <out_json>

``RESUME_GRID=chaos`` swaps the synthetic grid for a real chaos-axis
campaign (``spec_trial`` over an outage-fraction sweep), so the
kill-and-resume guarantee is exercised against full simulation worlds
with telemetry attached to every record.

Exit code 0 means the campaign completed and ``<out_json>`` holds its
records.
"""

import dataclasses
import json
import os
import random
import sys
import time
from pathlib import Path

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.chaos import ChaosSpec, ServerOutage
from repro.scenarios.spec import population_spec

BASE_SEED = 424242
GRID_AXES = {"x": (1, 2, 3, 4, 5, 6, 7, 8)}
GRID_NAME = "resume_probe"

CHAOS_GRID_NAME = "resume_chaos_probe"


def slow_logged_trial(params, seed):
    log_path = os.environ.get("RESUME_LOG")
    if log_path:
        with open(log_path, "a") as handle:
            handle.write(f"{seed}\n")
            handle.flush()
    time.sleep(float(os.environ.get("RESUME_SLEEP", "0")))
    rng = random.Random(seed)
    return {"value": params["x"] + rng.random(), "noise": rng.gauss(0, 1)}


def slow_logged_spec_trial(params, seed):
    """:func:`repro.campaign.spec_trial` with the driver's logging and
    kill-window sleep bolted on (env-driven, so identities/seeds/the
    fingerprint are untouched)."""
    log_path = os.environ.get("RESUME_LOG")
    if log_path:
        with open(log_path, "a") as handle:
            handle.write(f"{seed}\n")
            handle.flush()
    time.sleep(float(os.environ.get("RESUME_SLEEP", "0")))
    return spec_trial(params, seed)


def chaos_grid():
    base = dataclasses.replace(
        population_spec(num_clients=4, rounds=2),
        chaos=ChaosSpec(events=(
            ServerOutage(scope="providers", fraction=0.6, at=5.0,
                         duration=20.0),)))
    return ParameterGrid.over_spec(
        base, {"chaos.events[0].fraction": (0.0, 0.3, 0.6)},
        name=CHAOS_GRID_NAME)


def records_payload(result):
    """The byte-comparable rendering of a campaign's records (telemetry
    snapshots included when the trial attached them)."""
    return json.dumps(
        [{"point_key": r.point_key, "trial": r.trial, "seed": r.seed,
          "metrics": r.metrics,
          **({"telemetry": r.telemetry} if r.telemetry is not None else {})}
         for r in result.records],
        sort_keys=True)


def run_campaign(journal_dir):
    if os.environ.get("RESUME_GRID") == "chaos":
        runner = CampaignRunner(slow_logged_spec_trial, trials_per_point=2,
                                base_seed=BASE_SEED, executor="serial",
                                journal_dir=journal_dir)
        return runner.run(chaos_grid())
    grid = ParameterGrid(GRID_AXES, name=GRID_NAME)
    runner = CampaignRunner(slow_logged_trial, trials_per_point=1,
                            base_seed=BASE_SEED, executor="serial",
                            journal_dir=journal_dir)
    return runner.run(grid)


def main(argv):
    journal_dir, out_json = Path(argv[1]), Path(argv[2])
    result = run_campaign(journal_dir)
    out_json.write_text(json.dumps({
        "records": json.loads(records_payload(result)),
        "mode": result.mode,
        "resumed": result.resumed,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
