"""Record E7's per-trial metrics for every configuration.

Run from the repository root::

    PYTHONPATH=src python -m tests.campaign.record_timeshift_records

``fixtures/timeshift_records.json`` keeps, for each configuration in
:data:`CONFIGURATIONS` and each seed in :data:`SEEDS`, the
:data:`RECORDED_METRICS` that :func:`repro.campaign.spec_trial` returns
on E7's world (:func:`e7_spec`: the ``"e7-timeshift"`` spec preset with
the configuration's client, as ``bench_e7_end_to_end_timeshift``
sweeps it). Seed 7 is the example's world, 700-702 are the seeds the
bench used before it swept client paths. A refactor of how the E7 world
is built or how its client runs must leave these records as they are;
record them only from a tree whose E7 results are trusted.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Dict

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "timeshift_records.json"

#: The example's seed, then the bench's three former trial seeds.
SEEDS = (7, 700, 701, 702)

#: Each recorded configuration's ``(client.acquire, client.sync)``.
CONFIGURATIONS = {
    "plain-dns+naive-sntp": ("plain-dns", "sntp-mean"),
    "plain-dns+chronos": ("plain-dns", "chronos"),
    "distributed-doh+naive-sntp": ("algorithm1", "sntp-mean"),
    "distributed-doh+chronos": ("algorithm1", "chronos"),
}

#: The client metrics the fixture keeps.
RECORDED_METRICS = ("abs_clock_error", "clock_error",
                    "pool_malicious_fraction", "pool_size", "shifted",
                    "synced")


def e7_spec(configuration: str):
    """The ``"e7-timeshift"`` preset at its defaults (a 10 s lie, 1 of 3
    providers corrupted, a 20-server pool) with the configuration's
    client."""
    from repro.scenarios import ClientSpec, get_spec_preset
    acquire, sync = CONFIGURATIONS[configuration]
    return replace(get_spec_preset("e7-timeshift")(),
                   client=ClientSpec(acquire=acquire, sync=sync))


def e7_metrics(configuration: str, seed: int) -> Dict[str, float]:
    """The recorded metrics of one E7 trial."""
    from repro.campaign import spec_trial
    metrics = spec_trial({"spec": e7_spec(configuration)}, seed)
    return {name: metrics[name] for name in RECORDED_METRICS}


def record() -> Dict[str, Dict[str, Dict[str, float]]]:
    return {configuration: {str(seed): e7_metrics(configuration, seed)
                            for seed in SEEDS}
            for configuration in CONFIGURATIONS}


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True)
                            + "\n")
    print(f"wrote {FIXTURE_PATH}")
