"""Campaign engine: declarative parallel scenario sweeps.

The paper's results are all parameter sweeps; this package turns each
one into three declarative pieces instead of a hand-rolled nested loop:

* a :class:`ParameterGrid` naming the axes (presets × attacks × pool
  sizes × resolver configurations × dual-stack families, ...);
* a picklable trial function ``(params, seed) -> metrics`` — the one
  world trial :func:`spec_trial` compiles and measures whatever
  :class:`~repro.scenarios.spec.ScenarioSpec` a point carries
  (:meth:`ParameterGrid.over_spec` sweeps dotted spec paths, the
  single client's procedure included: ``client.acquire``,
  ``client.sync``); beside it are the A1 spray race
  (:func:`offpath_spray_trial`), the closed-form E4 trial
  (:func:`advantage_bits_trial`) and the §III Monte-Carlos;
* a :class:`CampaignRunner` that executes the trials on an adaptively
  chosen executor (serial or process pool, picked from a measured
  per-trial cost) with deterministic per-trial seeds derived from
  :func:`repro.util.rng.derive_seed`, appends every finished trial to
  one record log per campaign (:class:`CampaignJournal`: a killed sweep
  resumes from it, a sealed one in ``cache_dir=`` is a cache hit),
  optionally concentrates the trial budget on high-variance points
  (:class:`AdaptiveSampling`), and an :class:`Aggregator` that folds
  the records into :class:`repro.util.stats.RunningStats` summaries
  with confidence intervals and JSON export.

Serial and multiprocessing executions of the same campaign are
bit-identical: seeds depend only on ``(base_seed, point key, trial
index)`` and records are folded in grid order in every mode.

Quick start::

    from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
    from repro.scenarios import get_spec_preset

    base = get_spec_preset("custom")(pool_size=40)
    grid = ParameterGrid.over_spec(
        base, {"provider.count": (3, 5, 9), "provider.corrupted": (0, 1, 2)},
        fixed={"provider.forged": ("203.0.113.1",)},
        name="share-sweep").where(
        lambda p: p["provider.corrupted"] <= p["provider.count"])
    result = CampaignRunner(spec_trial, trials_per_point=3,
                            base_seed=7).run(grid)
    result.metric("attacker_share", **{"provider.count": 3,
                                       "provider.corrupted": 1}).mean
"""

from repro.analysis.montecarlo import (
    attack_probability_trial,
    pool_fraction_trial,
)
from repro.campaign.aggregate import (
    Aggregator,
    CampaignResult,
    MetricSummary,
    PointSummary,
    TrialRecord,
)
from repro.campaign.executors import ExecutorChoice, choose_executor
from repro.campaign.grid import GridPoint, ParameterGrid, point_key
from repro.campaign.journal import CampaignJournal, journal_path
from repro.campaign.runner import CampaignProgress, CampaignRunner, trial_seed
from repro.campaign.sampling import AdaptiveSampling
from repro.campaign.trials import (
    advantage_bits_trial,
    offpath_spray_trial,
    spec_trial,
)

__all__ = [
    "AdaptiveSampling",
    "Aggregator",
    "CampaignJournal",
    "CampaignProgress",
    "CampaignResult",
    "CampaignRunner",
    "ExecutorChoice",
    "GridPoint",
    "MetricSummary",
    "ParameterGrid",
    "PointSummary",
    "TrialRecord",
    "advantage_bits_trial",
    "attack_probability_trial",
    "choose_executor",
    "journal_path",
    "offpath_spray_trial",
    "point_key",
    "pool_fraction_trial",
    "spec_trial",
    "trial_seed",
]
