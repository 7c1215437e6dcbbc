"""Executor subsystem: how a campaign's trial specs actually run.

Two interchangeable executors — serial and a fork/process pool — both
drive the same module-level :func:`execute_spec`, and the runner
reassembles whatever they emit into spec order by ``(point key,
trial)`` identity. Every trial's seed derives from that same identity,
never from execution order or worker assignment, which is what keeps
the two modes' records bit-identical.

:func:`decide_executor` and :func:`dispatch` are the one executor
decision both the campaign runner and the sharded megafleet
(:class:`~repro.population.sharding.ShardedFleet`) make. The
interesting part is :func:`choose_executor`, the adaptive policy
that fixed the 0.9× parallel-campaign regression: the old runner paid
fork-pool startup and per-chunk IPC unconditionally, which *loses* to
serial for short sweeps and on low-core machines. The adaptive policy
instead projects the campaign's remaining serial cost from a measured
per-trial cost (the runner times its first executed spec as a
calibration probe) and only forks a pool when the projected saving
exceeds what the pool costs to stand up; below that threshold it runs
serially, because nothing can be won.

There is deliberately no thread pool: trials are pure Python and hold
the GIL, so threads can at best tie serial. On a 2-core machine
(Python 3.11, E3's ~1 ms Monte-Carlo trials, medians of 5-6 runs) a
forced thread pool took 0.350 s against serial's 0.343 s for 360
trials and 3.34 s against 2.91 s for 3600 (the fork pool: 0.310 s and
2.01 s), so tiny trials in bulk go through the same amortisation rule
as any other.

Worker counts are capped by ``os.cpu_count()`` in adaptive mode (a
4-worker pool on a 1-core box is strictly overhead — the measured
regression), while a forced pool honours whatever it is given.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.aggregate import TrialRecord

TrialFn = Callable[[Mapping[str, Any], int], Union[float, Mapping[str, float]]]

#: One trial spec: (trial_fn, point_index, point_key, params, trial, seed).
Spec = Tuple[TrialFn, int, str, Mapping[str, Any], int, int]

#: Sink the executors emit finished records into, in completion order.
EmitFn = Callable[[TrialRecord], None]

#: The executor policies :func:`decide_executor` accepts.
EXECUTORS = ("adaptive", "serial", "processes")

#: Approximate cost of standing up a fork pool and tearing it down
#: (process spawn + interpreter/module state duplication). A campaign
#: whose projected parallel saving is below this runs serially.
POOL_STARTUP_S = 0.25


def execute_spec(spec: Spec) -> TrialRecord:
    """Run one trial spec (module-level so worker processes can run it).

    A trial function may return a bare scalar, a metrics mapping, a
    ``(metrics, telemetry_json)`` pair, or a ``(metrics,
    telemetry_json, trace_json)`` triple — the extras attach the
    trial's registry snapshot (``include_telemetry`` exports) and its
    trace snapshot (traced runs) to the record.

    A trial function that *raises* is contained here: the exception
    becomes the record's ``error`` field (empty metrics) instead of
    aborting the sweep, so a chaos timeline that crashes one grid
    point still leaves every other point's records intact. Only
    ``Exception`` is caught — ``KeyboardInterrupt`` and friends still
    tear the campaign down.
    """
    trial_fn, point_index, point_key, params, trial, seed = spec
    try:
        outcome = trial_fn(params, seed)
    except Exception as error:
        return TrialRecord(point_index=point_index, point_key=point_key,
                           params=params, trial=trial, seed=seed, metrics={},
                           error=f"{type(error).__name__}: {error}")
    telemetry = None
    trace = None
    if isinstance(outcome, tuple):
        if len(outcome) == 3:
            outcome, telemetry, trace = outcome
        else:
            outcome, telemetry = outcome
    if isinstance(outcome, Mapping):
        metrics = {name: float(value) for name, value in outcome.items()}
    else:
        metrics = {"value": float(outcome)}
    return TrialRecord(point_index=point_index, point_key=point_key,
                       params=params, trial=trial, seed=seed, metrics=metrics,
                       telemetry=telemetry, trace=trace)


def execute_chunk(chunk: List[Spec]) -> List[TrialRecord]:
    """Run one worker-sized batch of specs (one IPC round-trip each
    way per *chunk*, not per trial)."""
    return [execute_spec(spec) for spec in chunk]


@dataclass(frozen=True)
class ExecutorChoice:
    """The executor a campaign (or its remainder) will run on."""

    kind: str      # "serial" | "processes"
    workers: int

    @property
    def mode(self) -> str:
        """The :class:`CampaignResult.mode` string this choice reports."""
        if self.kind == "serial":
            return "serial"
        return f"{self.kind}:{self.workers}"


def choose_executor(per_spec_s: float, pending: int, workers_cap: int,
                    cpu_count: Optional[int] = None) -> ExecutorChoice:
    """Pick the executor for ``pending`` specs of measured per-spec cost.

    :param per_spec_s: wall-clock of one trial, measured by the runner's
        calibration probe (its first executed spec).
    :param pending: how many specs remain to execute.
    :param workers_cap: the runner's worker budget (explicit ``workers``
        or ``os.cpu_count()``).
    :param cpu_count: core count override for tests; parallelism beyond
        the machine's cores is pure overhead for CPU-bound trials, so
        the adaptive choice is capped by it.
    """
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    workers = max(1, min(workers_cap, cores, pending))
    if workers <= 1 or pending <= 1:
        return ExecutorChoice("serial", 1)
    projected_serial = per_spec_s * pending
    saving = projected_serial * (1.0 - 1.0 / workers)
    if saving <= POOL_STARTUP_S:
        return ExecutorChoice("serial", 1)
    return ExecutorChoice("processes", workers)


def decide_executor(specs: Sequence[Spec], executor: str,
                    workers: Optional[int],
                    emit: EmitFn) -> Tuple[ExecutorChoice, Sequence[Spec]]:
    """Fix the executor for ``specs``; returns the choice and the specs
    still to run.

    :param executor: ``"serial"``; ``"processes"``, a forced pool of up
        to ``workers`` processes; or ``"adaptive"``, which runs the
        first spec here as the calibration probe (emitting its record)
        and lets :func:`choose_executor` pick from its measured cost.
    :param workers: worker cap (``None``: ``os.cpu_count()``); ``0`` or
        ``1`` means serial.

    Inside a daemonic process (a fork-pool worker, which may not start
    children) every mode runs serially; the records are identical.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, "
                         f"got {executor!r}")
    cap = workers if workers is not None else (os.cpu_count() or 1)
    if (cap <= 1 or executor == "serial" or len(specs) <= 1
            or _in_daemon_process()):
        return ExecutorChoice("serial", 1), specs
    if executor == "processes":
        # The forced pool honours the explicit worker count (capped
        # only by the amount of work there is to share).
        return ExecutorChoice("processes", min(cap, len(specs))), specs
    started = time.perf_counter()
    emit(execute_spec(specs[0]))
    per_spec_s = time.perf_counter() - started
    return choose_executor(per_spec_s, len(specs) - 1, cap), specs[1:]


def dispatch(specs: Sequence[Spec], choice: ExecutorChoice,
             emit: EmitFn) -> ExecutorChoice:
    """Run ``specs`` on ``choice``; returns the executor that ran them.

    That is serial when the pool is unavailable (unpicklable specs, no
    process support): the serial path gives identical records, only
    slower.
    """
    if not specs:
        return choice
    if choice.kind == "processes" and run_processes(specs, choice.workers,
                                                    emit):
        return choice
    run_serial(specs, emit)
    return ExecutorChoice("serial", 1)


def _in_daemon_process() -> bool:
    try:
        import multiprocessing
        return multiprocessing.current_process().daemon
    except Exception:
        return False


def chunk_specs(specs: Sequence[Spec], workers: int) -> List[List[Spec]]:
    """Group specs into worker-sized chunks, ~4 per worker, so slow grid
    points do not serialise the whole campaign behind them."""
    chunk = max(1, math.ceil(len(specs) / (workers * 4)))
    return [list(specs[start:start + chunk])
            for start in range(0, len(specs), chunk)]


def probe_picklable(specs: Sequence[Spec]) -> bool:
    """Whether specs can cross a process boundary, probed on *one*
    representative spec — the one with the most parameters (every spec
    shares the trial function, and axis value types repeat across
    points, so one spec stands in for the grid without serialising all
    of it)."""
    if not specs:
        return True
    representative = max(specs, key=lambda spec: len(spec[3]))
    try:
        pickle.dumps(representative)
    except Exception:
        return False
    return True


def run_serial(specs: Sequence[Spec], emit: EmitFn) -> None:
    """The reference executor: one spec after another, in order."""
    for spec in specs:
        emit(execute_spec(spec))


def run_processes(specs: Sequence[Spec], workers: int, emit: EmitFn) -> bool:
    """Fork-pool executor; ``False`` means "unavailable, fall back".

    Chunks go through ``imap_unordered`` — each is one task submission
    and one result message, amortising IPC over many trials, and no
    worker idles waiting for an in-order result to be consumed.

    Teardown is an explicit ``close()``/``join()`` so workers drain and
    exit cleanly; ``terminate()`` is reserved for the exception path
    (``Pool.__exit__`` would terminate unconditionally, killing workers
    mid-teardown).
    """
    if not probe_picklable(specs):
        return False
    try:
        import multiprocessing

        pool = multiprocessing.Pool(processes=workers)
    except (ImportError, OSError, PermissionError):
        # No usable process support (restricted sandboxes, missing
        # semaphores): the serial path gives identical results.
        return False
    chunks = chunk_specs(specs, workers)
    # Trial exceptions are contained inside execute_spec; errors raised
    # past this point are pool infrastructure failures and must
    # propagate, not silently trigger a serial re-run.
    try:
        for batch in pool.imap_unordered(execute_chunk, chunks):
            for record in batch:
                emit(record)
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()
    return True
