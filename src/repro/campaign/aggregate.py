"""Folding per-trial records into per-grid-point statistics.

The :class:`Aggregator` consumes :class:`TrialRecord`\\ s in order and
maintains one :class:`repro.util.stats.RunningStats` per (grid point,
metric). Because Welford accumulation is fold-order dependent at the
floating-point level, the campaign runner feeds records in expansion
order in both serial and multiprocessing modes — which is what makes
serial and parallel campaigns bit-identical.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.util.stats import RunningStats, normal_ci


@dataclass(frozen=True)
class TrialRecord:
    """The outcome of one trial at one grid point.

    ``telemetry`` carries the trial's
    :meth:`repro.telemetry.MetricsRegistry.snapshot_json` when the
    trial function exported one (see
    :class:`Aggregator` ``include_telemetry``); ``trace`` carries the
    trial's :meth:`repro.telemetry.Tracer.snapshot_json` when the
    runner traced it (``CampaignRunner(include_traces=True)``).

    ``error`` is ``None`` for a successful trial; a crashed trial
    records ``"ExceptionType: message"`` instead of metrics, so one
    bad grid point cannot take down a long sweep. Errored records are
    excluded from aggregation, journals and result caches — re-running
    (or resuming) the campaign re-executes exactly those trials.
    """

    point_index: int
    point_key: str
    params: Mapping[str, Any] = field(hash=False)
    trial: int = 0
    seed: int = 0
    metrics: Mapping[str, float] = field(default_factory=dict, hash=False)
    telemetry: Optional[str] = None
    trace: Optional[str] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class MetricSummary:
    """Summary statistics for one metric at one grid point."""

    count: int
    mean: float
    stddev: float
    stderr: float
    ci_low: float
    ci_high: float
    minimum: float
    maximum: float

    def to_json(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "stderr": self.stderr,
            "ci95": [self.ci_low, self.ci_high],
            "min": self.minimum,
            "max": self.maximum,
        }


@dataclass(frozen=True)
class PointSummary:
    """All metric summaries for one grid point.

    ``telemetry`` maps trial index to that trial's parsed registry
    snapshot — populated only by an :class:`Aggregator` constructed
    with ``include_telemetry=True``. ``traces`` maps trial index to
    that trial's parsed trace snapshot (``include_traces=True``; only
    head-sampled trials appear).
    """

    point_index: int
    point_key: str
    params: Mapping[str, Any] = field(hash=False)
    trials: int = 0
    metrics: Mapping[str, MetricSummary] = field(default_factory=dict,
                                                 hash=False)
    telemetry: Mapping[int, Any] = field(default_factory=dict, hash=False)
    traces: Mapping[int, Any] = field(default_factory=dict, hash=False)

    def __getitem__(self, metric: str) -> MetricSummary:
        return self.metrics[metric]

    def matches(self, subset: Mapping[str, Any]) -> bool:
        """Whether this point's parameters agree with ``subset``."""
        return all(name in self.params and self.params[name] == value
                   for name, value in subset.items())


class Aggregator:
    """Fold trial records into per-point, per-metric summaries.

    :param confidence: confidence level for the normal-approximation
        interval on each metric's mean.
    :param include_telemetry: keep each trial's registry snapshot (the
        ``telemetry`` JSON trial functions may attach to their records)
        and export it per point, so ``results/<name>.json`` lets
        benches assert on transport-level aggregates directly.
    :param include_traces: keep each sampled trial's trace snapshot
        (the ``trace`` JSON the traced runner attaches) and export it
        per point, so ``results/<name>.json`` carries replayable causal
        chains next to the statistics.
    """

    def __init__(self, confidence: float = 0.95,
                 include_telemetry: bool = False,
                 include_traces: bool = False) -> None:
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        self._confidence = confidence
        self._include_telemetry = include_telemetry
        self._include_traces = include_traces
        # point_key -> (point_index, params, trial count)
        self._points: Dict[str, Tuple[int, Mapping[str, Any], int]] = {}
        # point_key -> {metric name: running stats}
        self._stats: Dict[str, Dict[str, RunningStats]] = {}
        # point_key -> {trial index: parsed snapshot}
        self._telemetry: Dict[str, Dict[int, Any]] = {}
        # point_key -> {trial index: parsed trace snapshot}
        self._traces: Dict[str, Dict[int, Any]] = {}

    def add(self, record: TrialRecord) -> None:
        """Fold one trial record into the running summaries."""
        if record.error is not None:
            # Crashed trials carry no metrics; folding them would only
            # deflate the per-point trial counts the CIs divide by.
            return
        entry = self._points.get(record.point_key)
        if entry is None:
            self._points[record.point_key] = (record.point_index,
                                              record.params, 1)
        else:
            self._points[record.point_key] = (entry[0], entry[1], entry[2] + 1)
        if self._include_telemetry and record.telemetry is not None:
            self._telemetry.setdefault(record.point_key, {})[record.trial] = (
                json.loads(record.telemetry))
        if self._include_traces and record.trace is not None:
            self._traces.setdefault(record.point_key, {})[record.trial] = (
                json.loads(record.trace))
        point_stats = self._stats.setdefault(record.point_key, {})
        for metric, value in record.metrics.items():
            stats = point_stats.get(metric)
            if stats is None:
                stats = point_stats[metric] = RunningStats()
            stats.add(float(value))

    def extend(self, records) -> None:
        for record in records:
            self.add(record)

    def summaries(self) -> List[PointSummary]:
        """Per-point summaries in grid expansion order, each point's
        metrics sorted by name: records replayed from the campaign store
        carry their metrics key-sorted, so first-seen order would make
        a cached run list them differently from a live one."""
        result = []
        for key, (index, params, trials) in self._points.items():
            metrics: Dict[str, MetricSummary] = {}
            point_stats = self._stats.get(key, {})
            for metric in sorted(point_stats):
                stats = point_stats[metric]
                stderr = (stats.stddev / math.sqrt(stats.count)
                          if stats.count else 0.0)
                ci_low, ci_high = normal_ci(stats.mean, stats.stddev,
                                            stats.count, self._confidence)
                metrics[metric] = MetricSummary(
                    count=stats.count, mean=stats.mean, stddev=stats.stddev,
                    stderr=stderr, ci_low=ci_low, ci_high=ci_high,
                    minimum=stats.minimum, maximum=stats.maximum)
            result.append(PointSummary(point_index=index, point_key=key,
                                       params=params, trials=trials,
                                       metrics=metrics,
                                       telemetry=self._telemetry.get(key, {}),
                                       traces=self._traces.get(key, {})))
        result.sort(key=lambda summary: summary.point_index)
        return result


def json_value(value: Any) -> Any:
    """Make one parameter value JSON-serialisable.

    Spec objects (anything exposing ``to_dict``) render as their full
    nested dict, which is what makes grid-over-spec result files
    self-describing.
    """
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if hasattr(value, "to_dict"):
        return json_value(value.to_dict())
    if isinstance(value, (list, tuple)):
        return [json_value(item) for item in value]
    if isinstance(value, Mapping):
        return {str(k): json_value(v) for k, v in value.items()}
    return str(value)


@dataclass
class CampaignResult:
    """Everything one campaign run produced.

    Records stay available for custom post-processing; ``summaries``
    carry the folded statistics in grid expansion order. ``mode`` is
    the executor that actually ran (``"serial"``, ``"processes:<n>"``,
    ``"cached"`` when a sealed record log was replayed, or
    ``"resumed"`` when every record came out of an unsealed one);
    ``executor`` is the configured policy (usually ``"adaptive"``) and
    ``resumed`` counts log-recovered records of a run that was not a
    cache hit — all three are provenance only and never
    affect the records themselves. ``failed`` counts records whose
    trial function raised (their ``error`` fields say why); the
    summaries cover only the successful trials.
    """

    name: str
    base_seed: int
    trials_per_point: int
    mode: str
    records: List[TrialRecord]
    summaries: List[PointSummary]
    executor: str = "adaptive"
    resumed: int = 0
    failed: int = 0

    def summary(self, **subset: Any) -> PointSummary:
        """The unique point summary whose params match ``subset``."""
        matching = [s for s in self.summaries if s.matches(subset)]
        if not matching:
            raise KeyError(f"no grid point matches {subset!r}")
        if len(matching) > 1:
            raise KeyError(f"{len(matching)} grid points match {subset!r}")
        return matching[0]

    def metric(self, metric: str, **subset: Any) -> MetricSummary:
        """Shorthand for ``summary(**subset).metrics[metric]``."""
        return self.summary(**subset).metrics[metric]

    def to_json(self) -> Dict[str, Any]:
        """The campaign's exportable form (``BENCH_*.json`` compatible:
        a flat ``results`` list of per-point stat dicts)."""
        return {
            "campaign": self.name,
            "seed": self.base_seed,
            "trials_per_point": self.trials_per_point,
            "mode": self.mode,
            "executor": self.executor,
            "resumed": self.resumed,
            "failed": self.failed,
            "results": [
                {
                    "params": {name: json_value(value)
                               for name, value in summary.params.items()},
                    "key": summary.point_key,
                    "trials": summary.trials,
                    "metrics": {metric: stats.to_json()
                                for metric, stats in summary.metrics.items()},
                    **({"telemetry": {str(trial): snapshot
                                      for trial, snapshot
                                      in sorted(summary.telemetry.items())}}
                       if summary.telemetry else {}),
                    **({"traces": {str(trial): snapshot
                                   for trial, snapshot
                                   in sorted(summary.traces.items())}}
                       if summary.traces else {}),
                }
                for summary in self.summaries
            ],
        }

    def write_json(self, path: "Path | str") -> Path:
        """Serialise :meth:`to_json` to ``path`` (creating parents)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True)
                        + "\n")
        return path
