"""Campaign execution: adaptive sharding, resumable, deterministic.

The runner expands a :class:`~repro.campaign.grid.ParameterGrid` into
``len(grid) * trials_per_point`` trial specs, derives every trial's seed
from ``(base_seed, point key, trial index)`` via
:func:`repro.util.rng.derive_seed`, and executes the specs on one of the
executors in :mod:`repro.campaign.executors` — serial or a fork/process
pool. Because seeds depend only on the campaign's base seed and each
trial's identity — never on execution order, worker assignment, or
executor kind — both modes produce identical records, and the
aggregation (performed in spec order in every mode) is bit-identical.

By default the executor is chosen *adaptively*: the first executed spec
doubles as a calibration probe, and the measured per-trial cost decides
whether the fork pool can amortise its startup (process pool) or not
(serial) — see :func:`repro.campaign.executors.decide_executor`. Pass
``executor=`` to force a mode; ``workers=0/1`` always forces serial.

Trial functions must be module-level callables of the form
``trial_fn(params, seed) -> float | Mapping[str, float]`` so they can be
pickled to workers; anything unpicklable silently degrades to the serial
path (the results are the same, only slower).

Long sweeps get three conveniences:

* **progress** — pass ``on_progress`` and the runner reports one
  :class:`CampaignProgress` (completed/total, elapsed, ETA) per
  finished trial, in every mode;
* **one campaign store** — pass ``cache_dir`` and/or ``journal_dir``
  and every finished trial is appended to the campaign's record log,
  keyed by a content hash of the campaign's identity (the whole
  ``repro`` source tree, the trial function, grid points, per-trial
  seeds, statistics and sampling configuration). A killed sweep
  resumes where it stopped (``mode == "resumed"`` when nothing was
  left to run); a completed one seals its log into ``cache_dir``, and
  rerunning it replays the sealed log without executing a single trial
  (``mode == "cached"``, hit logged on the ``repro.campaign`` logger).
  Any drift in the code or the grid changes the hash and forces
  recomputation, and ``cache_max_bytes`` bounds the directory by an LRU
  sweep — see :mod:`repro.campaign.journal`;
* **adaptive sampling** — pass
  ``adaptive=AdaptiveSampling(max_trials=..., ci_width=...)`` and
  ``trials_per_point`` becomes a floor: points whose confidence
  interval is still wider than ``ci_width`` keep receiving
  deterministically-seeded extra trials (up to ``max_trials``), so the
  trial budget concentrates where the variance lives — see
  :mod:`repro.campaign.sampling`.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.campaign.aggregate import Aggregator, CampaignResult, TrialRecord
from repro.campaign.executors import (
    EXECUTORS,
    ExecutorChoice,
    Spec,
    TrialFn,
    decide_executor,
    dispatch,
)
from repro.campaign.grid import GridPoint, ParameterGrid
from repro.campaign.journal import CampaignJournal, rehydrate, sweep
from repro.campaign.sampling import AdaptiveSampling
from repro.util.rng import derive_seed
from repro.util.stats import RunningStats

logger = logging.getLogger("repro.campaign")


@dataclass(frozen=True)
class CampaignProgress:
    """One progress tick, delivered after each finished trial.

    Under adaptive sampling ``total`` can grow between ticks as
    unconverged points request extra trials; ``completed`` counts both
    executed and log-resumed trials. A cache hit reports one tick with
    ``cached`` set instead of one per replayed trial.
    """

    name: str
    completed: int
    total: int
    elapsed_s: float
    eta_s: Optional[float]        # None until at least one trial lands
    cached: bool = False          # whole campaign replayed from a sealed log

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0


ProgressCallback = Callable[[CampaignProgress], None]


def trial_seed(base_seed: int, point_key: str, trial: int) -> int:
    """The deterministic seed for one trial of one grid point."""
    return derive_seed(base_seed, "campaign", point_key, str(trial))


class TracedTrial:
    """A trial function wrapped with a per-trial :class:`Tracer`.

    Module-level and picklable (the wrapped ``trial_fn`` must be, like
    any campaign trial function), so traced sweeps run on every
    executor. The head-sampling decision is made from the trial's
    ``(point key, trial)`` identity — the same identity that keys
    seeds and the campaign store — so a sampled sweep resumes and caches
    exactly like an unsampled one, and a sampled-out trial runs with
    *no* tracer installed (zero per-event cost, bit-identical results).
    """

    def __init__(self, trial_fn: TrialFn, point_key: str, trial: int,
                 sample: float) -> None:
        self.trial_fn = trial_fn
        self.point_key = point_key
        self.trial = trial
        self.sample = sample

    def __call__(self, params: Mapping[str, Any], seed: int):
        from repro.telemetry.trace import Tracer, should_sample, use_tracer

        if not should_sample(self.point_key, self.trial, self.sample):
            return self.trial_fn(params, seed)
        tracer = Tracer()
        with use_tracer(tracer):
            root = tracer.begin("campaign.trial",
                                attrs={"point": self.point_key,
                                       "trial": self.trial, "seed": seed})
            with tracer.scope(root):
                outcome = self.trial_fn(params, seed)
            tracer.finish(root)
        telemetry = None
        if isinstance(outcome, tuple):
            outcome, telemetry = outcome[0], outcome[1]
        return outcome, telemetry, tracer.snapshot_json()


_source_fingerprint_cache: Optional[str] = None


def _source_tree_fingerprint() -> str:
    """Hash of every ``repro`` source file (memoised per process).

    Trial results depend on the whole simulation stack, so the campaign
    store must key on all of it — not just the trial function's own
    source. ~100 small files hash in a few milliseconds, once.
    """
    global _source_fingerprint_cache
    if _source_fingerprint_cache is None:
        import repro

        hasher = hashlib.sha256()
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode("utf-8"))
            try:
                hasher.update(path.read_bytes())
            except OSError:
                hasher.update(b"<unreadable>")
        _source_fingerprint_cache = hasher.hexdigest()
    return _source_fingerprint_cache


class _Execution:
    """Shared execution state across a campaign's base pass and its
    adaptive-sampling rounds: one executor decision (made once, from
    the calibration probe), one record log, one progress stream, one
    growing completed/total count."""

    def __init__(self, runner: "CampaignRunner", name: str,
                 log: Optional[CampaignJournal],
                 progress: Optional[ProgressCallback]) -> None:
        self._runner = runner
        self._name = name
        self._log = log
        self._recovered = log.recover() if log is not None else {}
        # Replaying a sealed log is a cache hit: it reports one cached
        # tick at the end instead of one per replayed record.
        self._sealed = log is not None and log.sealed
        self._progress = progress
        self._started = time.monotonic()
        self._choice: Optional[ExecutorChoice] = None
        self._completed = 0
        self._total = 0
        self.resumed = 0

    @property
    def mode(self) -> str:
        if self._choice is not None:
            return self._choice.mode
        if not self.resumed:
            return "serial"
        return "cached" if self._sealed else "resumed"

    # ------------------------------------------------------------------

    def run_specs(self, specs: List[Spec]) -> List[TrialRecord]:
        """Execute ``specs`` (replaying logged identities) and return
        their records in spec order."""
        self._total += len(specs)
        slots: List[Optional[TrialRecord]] = [None] * len(specs)
        slot_of: Dict[Tuple[str, int], int] = {}
        pending: List[Spec] = []
        for index, spec in enumerate(specs):
            record = self._recover_record(spec)
            if record is not None:
                slots[index] = record
                self.resumed += 1
                self._tick(report=not self._sealed)
            else:
                slot_of[(spec[2], spec[4])] = index
                pending.append(spec)

        def emit(record: TrialRecord) -> None:
            slots[slot_of[(record.point_key, record.trial)]] = record
            if self._log is not None and record.error is None:
                # Errored trials stay out of the log so a resumed run
                # re-executes them instead of trusting the crash.
                self._log.append(record)
            self._tick()

        if pending:
            if self._choice is None:
                runner = self._runner
                self._choice, pending = decide_executor(
                    pending, runner._executor, runner._workers, emit)
                logger.debug("campaign %r: executor %s", self._name,
                             self._choice.mode)
            self._choice = dispatch(pending, self._choice, emit)
        assert all(record is not None for record in slots)
        return slots  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def _recover_record(self, spec: Spec) -> Optional[TrialRecord]:
        """A logged entry rehydrated against the live spec, or
        ``None`` (a drifted entry is simply re-executed)."""
        _, point_index, key, params, trial, seed = spec
        return rehydrate(self._recovered.get((key, trial)), point_index,
                         key, params, trial, seed)

    def _tick(self, report: bool = True) -> None:
        self._completed += 1
        if self._progress is None or not report:
            return
        elapsed = time.monotonic() - self._started
        remaining = self._total - self._completed
        eta = (elapsed / self._completed * remaining
               if self._completed else None)
        self._progress(CampaignProgress(
            name=self._name, completed=self._completed, total=self._total,
            elapsed_s=elapsed, eta_s=eta))


class CampaignRunner:
    """Run every trial of a parameter grid and aggregate the results.

    :param trial_fn: module-level callable ``(params, seed) -> metrics``.
        A scalar return value becomes the metric ``"value"``.
    :param trials_per_point: how many independently seeded trials to run
        at each grid point. With ``adaptive`` set this is a *floor*
        (effective minimum 2 — variance needs two samples).
    :param base_seed: root of the per-trial seed derivation.
    :param workers: worker budget. ``None`` uses ``os.cpu_count()``;
        ``0`` or ``1`` forces the serial path; an explicit count is
        honoured by the forced executors and treated as a cap by the
        adaptive one (which also never exceeds the machine's cores).
    :param executor: ``"adaptive"`` (default: measure the first trial,
        then pick serial or processes — see
        :func:`repro.campaign.executors.choose_executor`), or force
        ``"serial"`` or ``"processes"``. All modes produce bit-identical
        records.
    :param confidence: confidence level in ``(0, 1)`` for aggregate
        intervals (and for ``adaptive``'s convergence test).
    :param adaptive: an :class:`~repro.campaign.sampling.AdaptiveSampling`
        policy, or ``None`` for the classic fixed trial count.
    :param include_telemetry: export each trial's registry snapshot
        (when the trial function attaches one) into the aggregated
        result and its JSON — see ``Aggregator``.
    :param include_traces: run each trial under a per-trial
        :class:`~repro.telemetry.Tracer` and export the trace snapshot
        into the record, the aggregated result and its JSON. Traces are
        deterministic (virtual timestamps, counter span IDs) so all
        executors produce identical ones.
    :param trace_sample: head-sampling rate for traced runs — the
        fraction of ``(point, trial)`` identities that actually carry a
        tracer (default 1.0, everything). Sampling is keyed on the same
        identity as the seeds, so it is stable across executors,
        resumes and cache hits; sampled-out trials run tracer-free at
        zero cost.
    :param name: campaign label carried into the result/JSON.
    :param cache_dir: where completed campaigns' sealed record logs
        live; rerunning an identical campaign replays its log instead of
        recomputing anything. Also where the log grows while the
        campaign runs, unless ``journal_dir`` is set.
    :param cache_max_bytes: size cap on ``cache_dir``. After each seal,
        least-recently-used store logs (by mtime; cache hits touch their
        file; the log just sealed is exempt) are evicted until the
        directory fits. ``None`` disables the sweep.
    :param journal_dir: where a running campaign's log grows (it moves
        into ``cache_dir``, or is deleted, once sealed); an interrupted
        campaign resumes from it on the next run — see
        :mod:`repro.campaign.journal`.
    :param on_progress: default progress callback (see
        :class:`CampaignProgress`); :meth:`run` can override per run.
    """

    #: Default cache size cap: plenty for every stock benchmark's
    #: records while keeping an unattended results/.cache bounded.
    DEFAULT_CACHE_MAX_BYTES = 64 * 1024 * 1024

    def __init__(self, trial_fn: TrialFn, *, trials_per_point: int = 1,
                 base_seed: int = 0, workers: Optional[int] = None,
                 executor: str = "adaptive",
                 confidence: float = 0.95,
                 adaptive: Optional[AdaptiveSampling] = None,
                 include_telemetry: bool = False,
                 include_traces: bool = False, trace_sample: float = 1.0,
                 name: str = "campaign",
                 cache_dir: "Optional[Path | str]" = None,
                 cache_max_bytes: Optional[int] = DEFAULT_CACHE_MAX_BYTES,
                 journal_dir: "Optional[Path | str]" = None,
                 on_progress: Optional[ProgressCallback] = None) -> None:
        if trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, "
                             f"got {executor!r}")
        if cache_max_bytes is not None and cache_max_bytes < 1:
            raise ValueError("cache_max_bytes must be >= 1 (or None)")
        if adaptive is not None and not isinstance(adaptive, AdaptiveSampling):
            raise TypeError("adaptive must be an AdaptiveSampling (or None)")
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1], got {trace_sample}")
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        self._trial_fn = trial_fn
        self._trials_per_point = trials_per_point
        self._base_seed = int(base_seed)
        self._workers = workers
        self._executor = executor
        self._confidence = confidence
        self._adaptive = adaptive
        self._include_telemetry = include_telemetry
        self._include_traces = include_traces
        self._trace_sample = float(trace_sample)
        self._name = name
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._cache_max_bytes = cache_max_bytes
        self._journal_dir = (Path(journal_dir) if journal_dir is not None
                             else None)
        self._on_progress = on_progress
        if adaptive is not None and adaptive.max_trials < self._floor:
            raise ValueError(
                f"adaptive.max_trials ({adaptive.max_trials}) is below the "
                f"per-point floor ({self._floor})")

    @property
    def _floor(self) -> int:
        """Trials every point starts with. Adaptive sampling needs two
        samples before a variance estimate exists, hence the minimum."""
        if self._adaptive is not None:
            return max(self._trials_per_point, 2)
        return self._trials_per_point

    # ------------------------------------------------------------------
    # Spec expansion.
    # ------------------------------------------------------------------

    def specs(self, grid: ParameterGrid) -> List[Spec]:
        """Every base (point, trial) pair in deterministic expansion
        order (the floor only — adaptive rounds extend this)."""
        return self._base_specs(grid.points())

    def _base_specs(self, points: List[GridPoint]) -> List[Spec]:
        return [self._make_spec(point, trial)
                for point in points
                for trial in range(self._floor)]

    def _make_spec(self, point: GridPoint, trial: int) -> Spec:
        trial_fn = self._trial_fn
        if self._include_traces:
            trial_fn = TracedTrial(trial_fn, point.key, trial,
                                   self._trace_sample)
        return (trial_fn, point.index, point.key, point.params,
                trial, trial_seed(self._base_seed, point.key, trial))

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self, grid: ParameterGrid,
            on_progress: Optional[ProgressCallback] = None) -> CampaignResult:
        """Execute the campaign and return its aggregated result.

        With ``cache_dir`` or ``journal_dir`` configured, the campaign's
        record log is replayed first: a sealed log is a cache hit
        (``mode == "cached"``, nothing executes) and an unsealed one,
        left by an interrupted run, is resumed instead of restarted.
        """
        progress = on_progress or self._on_progress
        points = grid.points()
        specs = self._base_specs(points)
        name = grid.name or self._name
        log = CampaignJournal.open(name, self._fingerprint(name, specs),
                                   self._journal_dir, self._cache_dir)
        execution = _Execution(self, name, log, progress)
        try:
            records = execution.run_specs(specs)
            if self._adaptive is not None:
                records = self._adaptive_rounds(points, records, execution)
        finally:
            if log is not None:
                log.close()
        # A sweep with crashed trials leaves its log unsealed: the next
        # run replays the successful records and re-executes exactly the
        # failed identities.
        if log is not None and all(record.error is None
                                   for record in records):
            sealed = log.seal(self._cache_dir)
            if sealed is not None and self._cache_max_bytes is not None:
                sweep(sealed.parent, self._cache_max_bytes, protect=sealed)
        mode = execution.mode
        if mode != "cached":
            return self._finalise(name, records, mode=mode,
                                  resumed=execution.resumed)
        logger.info("campaign %r: cache hit (%d records at %s); "
                    "skipping execution", name, len(records), log.path)
        if progress is not None:
            progress(CampaignProgress(name=name, completed=len(records),
                                      total=len(records), elapsed_s=0.0,
                                      eta_s=0.0, cached=True))
        return self._finalise(name, records, mode=mode)

    def _adaptive_rounds(self, points: List[GridPoint],
                         records: List[TrialRecord],
                         execution: _Execution) -> List[TrialRecord]:
        """Keep adding trials to unconverged points until every point's
        CI is narrow enough or its ``max_trials`` budget is spent.

        Deterministic end to end: the decision to add trials depends
        only on the records, which depend only on the seeds — so serial,
        process, resumed and cached runs all expand (and record) the
        exact same trial set.
        """
        adaptive = self._adaptive
        assert adaptive is not None
        stats: Dict[str, Dict[str, RunningStats]] = {}
        trials_done: Dict[str, int] = {}

        def fold(record: TrialRecord) -> None:
            trials_done[record.point_key] = \
                trials_done.get(record.point_key, 0) + 1
            per_metric = stats.setdefault(record.point_key, {})
            for metric, value in record.metrics.items():
                per_metric.setdefault(metric, RunningStats()).add(value)

        for record in records:
            fold(record)
        while True:
            requests: List[Spec] = []
            for point in points:
                done = trials_done.get(point.key, 0)
                if done >= adaptive.max_trials:
                    continue
                if self._converged(stats.get(point.key, {}), done):
                    continue
                batch = adaptive.next_batch(done)
                requests.extend(self._make_spec(point, trial)
                                for trial in range(done, done + batch))
            if not requests:
                break
            fresh = execution.run_specs(requests)
            records.extend(fresh)
            for record in fresh:
                fold(record)
        # Canonical record order: base specs land point-major already;
        # adaptive rounds interleave, so normalise before aggregation —
        # every mode folds the same records in the same order.
        records.sort(key=lambda record: (record.point_index, record.trial))
        return records

    def _converged(self, per_metric: Mapping[str, RunningStats],
                   done: int) -> bool:
        """Whether a point's CI is already narrow enough to stop."""
        adaptive = self._adaptive
        assert adaptive is not None
        if done < 2:
            return False
        if adaptive.metric is not None:
            watched = per_metric.get(adaptive.metric)
            if watched is None:      # point never reports it: nothing to do
                return True
            return watched.ci_width(self._confidence) <= adaptive.ci_width
        return all(stats.ci_width(self._confidence) <= adaptive.ci_width
                   for stats in per_metric.values())

    def _finalise(self, name: str, records: List[TrialRecord],
                  mode: str, resumed: int = 0) -> CampaignResult:
        aggregator = Aggregator(confidence=self._confidence,
                                include_telemetry=self._include_telemetry,
                                include_traces=self._include_traces)
        aggregator.extend(records)
        return CampaignResult(
            name=name, base_seed=self._base_seed,
            trials_per_point=self._trials_per_point, mode=mode,
            records=records, summaries=aggregator.summaries(),
            executor=self._executor, resumed=resumed,
            failed=sum(1 for record in records if record.error is not None))

    # ------------------------------------------------------------------
    # Campaign identity.
    # ------------------------------------------------------------------

    def _fingerprint(self, name: str, specs: List[Spec]) -> str:
        """Content hash of everything that determines the records.

        Covers the whole ``repro`` source tree (a trial function's
        results depend on the entire simulation stack beneath it, so
        *any* code edit must invalidate the store), the trial function's
        identity, the statistics and sampling configuration, and every
        base spec's identity — point key, canonical parameter rendering,
        trial index and derived seed (which folds in the base seed).
        The executor and worker count are deliberately excluded: they
        cannot change the records.

        Known limits: helpers a trial function calls *outside* the
        ``repro`` tree are only covered through the function's own
        source, and the tree hash is memoised per process — keep trial
        logic inside ``repro`` (all stock trials are) and don't edit
        sources mid-run if you rely on invalidation.
        """
        try:
            fn_identity = inspect.getsource(self._trial_fn)
        except (OSError, TypeError):
            fn_identity = repr(self._trial_fn)
        hasher = hashlib.sha256()
        adaptive = self._adaptive
        payload = {
            "name": name,
            "code": _source_tree_fingerprint(),
            "trial_fn": f"{getattr(self._trial_fn, '__module__', '?')}."
                        f"{getattr(self._trial_fn, '__qualname__', '?')}",
            "source": fn_identity,
            "confidence": self._confidence,
            "adaptive": ([adaptive.max_trials, adaptive.ci_width,
                          adaptive.metric] if adaptive is not None else None),
            # Tracing changes record *content* (unlike the executor or
            # worker count), so traced and untraced runs must not share
            # a record log.
            "traces": ([self._trace_sample]
                       if self._include_traces else None),
            "specs": [
                [key, trial, seed,
                 repr(sorted(params.items(), key=lambda kv: kv[0]))]
                for _, _, key, params, trial, seed in specs
            ],
        }
        hasher.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
        return hasher.hexdigest()
