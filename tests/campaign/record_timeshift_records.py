"""Record E7's per-trial metrics for every configuration.

Run from the repository root::

    PYTHONPATH=src python -m tests.campaign.record_timeshift_records

``fixtures/timeshift_records.json`` keeps, for each
:data:`repro.campaign.trials.TIMESHIFT_CONFIGURATIONS` name and each
seed in :data:`SEEDS`, the metric dict :func:`repro.campaign.timeshift_trial`
returns under E7's fixed parameters (``bench_e7_end_to_end_timeshift``).
Seed 7 is the example's world, 700-702 are the bench's. A refactor of how
the E7 world is built must leave these records as they are; record them
only from a tree whose E7 results are trusted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "timeshift_records.json"

#: The example's seed, then the bench's three trial seeds.
SEEDS = (7, 700, 701, 702)

#: E7's fixed grid parameters (pool_size keeps its default of 20).
FIXED = {"lie_offset": 10.0, "num_providers": 3, "corrupted_providers": 1}


def record() -> Dict[str, Dict[str, Dict[str, float]]]:
    from repro.campaign.trials import TIMESHIFT_CONFIGURATIONS, timeshift_trial
    return {configuration: {str(seed): timeshift_trial(
                dict(FIXED, configuration=configuration), seed)
            for seed in SEEDS}
            for configuration in TIMESHIFT_CONFIGURATIONS}


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True)
                            + "\n")
    print(f"wrote {FIXTURE_PATH}")
