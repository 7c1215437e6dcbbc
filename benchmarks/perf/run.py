"""The repository benchmark: four workloads measured as users run them.

Run one workload the way the benchmark contract calls it::

    python3 benchmarks/perf/run.py --workload udp-fleet --seed 42 \\
        --seconds 20 --trace 0

or every workload (interleaved round-robin across ``--repeats``, seed
``--seed + repeat``)::

    PYTHONPATH=src:. python -m benchmarks.perf --seed 42 --repeats 5

Each measured unit -- one world (or one campaign) built from its spec
and the seed -- runs in its own fresh interpreter
(:mod:`benchmarks.perf.unit`), with the garbage collector at its
defaults. ``--trace 0`` alternates untraced units with units under the
program's own tracer, adds build-only units so ``setup_s`` is a median
of several cold builds, and reports the ``end_to_end`` metrics of
``BENCHMARK.json``; ``--trace 1`` alternates reference units with
units under the layer profiler and reports the ``per_layer`` metrics.
A run holds as many pairs as fill ``--seconds`` on the reference
machine (at least two; one with ``--smoke``, which also shrinks every
workload), each pair on its own seed derived from ``--seed``. Every
metric is the median over its units; the result file under
``benchmarks/results/perf/`` also holds quartiles, the unit count,
every unit's record, the output checks and a run manifest. A failed
check makes the run exit non-zero.

``python -m benchmarks.perf compare PARENT CHANGE`` judges a change
against its parent (see :mod:`benchmarks.perf.compare`).
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RESULTS_DIR = ROOT / "benchmarks" / "results" / "perf"
SCHEMA = "repro-perf/1"

WORKLOADS = ("udp-fleet", "doh-fleet", "iterative-chaos", "campaign-sweep")

#: A unit that runs longer than this is killed and fails the run.
UNIT_TIMEOUT_S = 120

#: Modes of the two units in each measured pair, per ``--trace``.
PAIR_MODES = {0: ("untraced", "traced"), 1: ("reference", "profile")}

#: Wall seconds of one pair on the reference machine (2 cores, Python
#: 3.11), per ``--trace``; they set how many pairs fill a run.
PAIR_SECONDS = {
    0: {"udp-fleet": 9.8, "doh-fleet": 10.2, "iterative-chaos": 9.7,
        "campaign-sweep": 11.3},
    1: {"udp-fleet": 10.5, "doh-fleet": 10.5, "iterative-chaos": 10.5,
        "campaign-sweep": 12.0},
}

#: Build-only units per ``--trace 0`` run (besides one per pair), so
#: ``setup_s`` is the median of several cold builds.
SETUP_UNITS = 3

#: Each layer -> the (end-to-end metric, workload) pairs its metrics
#: (the ``<layer>.*`` entries of ``per_layer``) should move. Written
#: down before measuring; the README holds the same table.
SHOULD_MOVE = {
    "simulator": [("rounds_per_s", "udp-fleet"),
                  ("rounds_per_s", "iterative-chaos")],
    "fabric": [("rounds_per_s", "udp-fleet")],
    "transport": [("rounds_per_s", "udp-fleet"),
                  ("rounds_per_s", "iterative-chaos")],
    "codec": [("rounds_per_s", "udp-fleet")],
    "resolver": [("rounds_per_s", "iterative-chaos")],
    "tls": [("rounds_per_s", "doh-fleet"), ("setup_s", "doh-fleet")],
    "doh": [("rounds_per_s", "doh-fleet")],
    "combine": [("rounds_per_s", "udp-fleet")],
    "population": [("rounds_per_s", "udp-fleet")],
    "ntp": [("rounds_per_s", "udp-fleet")],
    "capacity": [("rounds_per_s", "iterative-chaos")],
    "telemetry": [("rounds_per_s", "udp-fleet"),
                  ("rounds_per_s", "doh-fleet"),
                  ("rounds_per_s", "iterative-chaos"),
                  ("traced_rounds_per_s", "udp-fleet")],
    "gc": [("rounds_per_s", "udp-fleet"), ("peak_rss_mb", "udp-fleet")],
    "scenarios": [("setup_s", "udp-fleet"), ("setup_s", "doh-fleet"),
                  ("setup_s", "iterative-chaos"),
                  ("rounds_per_s", "campaign-sweep")],
    "campaign": [("rounds_per_s", "campaign-sweep")],
    "profile": [],
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# Units.
# ----------------------------------------------------------------------

class UnitFailed(RuntimeError):
    pass


def spawn_unit(workload: str, mode: str, seed: int, smoke: bool) -> dict:
    """Run one unit in a fresh interpreter and return its record."""
    command = [sys.executable, "-m", "benchmarks.perf.unit", workload, mode,
               str(seed)] + (["--smoke"] if smoke else [])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    # A session of its own, so a timeout also stops the campaign's
    # worker processes.
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=UNIT_TIMEOUT_S)
    except BaseException as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise UnitFailed(f"{workload}/{mode} exceeded "
                             f"{UNIT_TIMEOUT_S}s") from None
        raise
    if process.returncode != 0:
        raise UnitFailed(f"{workload}/{mode} exited {process.returncode}:\n"
                         + stderr[-3000:])
    return json.loads(stdout.strip().splitlines()[-1])


def pair_count(workload: str, seconds: float, trace: int,
               smoke: bool) -> int:
    """Pairs that fill ``seconds`` at this machine's pace (at least
    two; one with ``--smoke``). The count depends only on the
    arguments, so the same arguments always measure the same inputs."""
    if smoke:
        return 1
    return max(2, round(seconds / PAIR_SECONDS[trace][workload]))


def run_units(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool):
    """The run's measured pairs, flattened, then its build-only units.
    Pair ``i`` builds its world from seed ``seed * 1000 + i``; both
    units of a pair use the same seed, and build-only units continue
    the sequence."""
    pairs = pair_count(workload, seconds, trace, smoke)
    units = []
    for index in range(pairs):
        for mode in PAIR_MODES[trace]:
            units.append(spawn_unit(workload, mode, seed * 1000 + index,
                                    smoke))
    if trace == 0 and not smoke:
        for index in range(pairs, pairs + SETUP_UNITS):
            units.append(spawn_unit(workload, "setup", seed * 1000 + index,
                                    smoke))
    return units


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------

def _of(units, mode):
    return [unit for unit in units if unit["mode"] == mode]


def end_to_end(units) -> dict:
    """Samples of every end-to-end metric, one per unit."""
    untraced = _of(units, "untraced")
    return {
        "rounds_per_s": [u["rounds_per_s"] for u in untraced],
        "traced_rounds_per_s": [u["rounds_per_s"]
                                for u in _of(units, "traced")],
        "setup_s": [u["setup_s"] for u in untraced + _of(units, "setup")],
        "peak_rss_mb": [u["peak_rss_mb"] for u in untraced],
    }


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(units) -> dict:
    """Samples of every per-layer metric, one per profiled unit (the
    ones compared against the reference units hold one value)."""
    profiled = _of(units, "profile")
    reference_rate = statistics.median(
        u["rounds_per_s"] for u in _of(units, "reference"))
    samples = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    for unit in profiled:
        profile = unit["profile"]
        counters = unit["counters"]
        entries = profile["entries"]
        for layer, share in profile["shares"].items():
            add(f"{layer}.self_share", share)
        add("simulator.events", profile["events"])
        add("fabric.datagrams", counters.get("net.datagrams_sent", 0))
        add("fabric.drops", counters.get("net.datagrams_dropped", 0))
        exchanges = counters.get("transport.exchanges", 0)
        add("transport.exchanges", exchanges)
        add("transport.attempts_per_exchange",
            _ratio(counters.get("transport.attempts", 0), exchanges))
        add("transport.exhausted", counters.get("transport.exhausted", 0))
        add("codec.calls", entries["codec"])
        add("resolver.upstream_queries",
            counters.get("transport.exchanges{label=resolver-query}", 0))
        hits = counters.get("dns.cache.hits", 0)
        add("resolver.cache_hit_ratio",
            _ratio(hits, hits + counters.get("dns.cache.misses", 0)))
        handshakes = profile["calls"].get(
            "repro.doh.tls.TlsClientConnection.connect", 0)
        add("tls.handshakes", handshakes)
        add("tls.ms_per_handshake",
            _ratio(1000 * profile["self_s"]["tls"], handshakes))
        add("combine.calls", entries["combine"])
        add("population.failed_fraction", unit["failed_fraction"])
        add("capacity.admitted", counters.get("srv.admitted", 0))
        add("capacity.rejected", counters.get("srv.rejected", 0))
        add("telemetry.calls", entries["telemetry"])
        add("gc.gen2_collections", profile["gen2_collections"])
        add("campaign.replay_s", unit.get("replay_s", 0.0))
        add("profile.overhead", 1 - unit["rounds_per_s"] / reference_rate)
    # Percentiles over every trial of the run, not medians of per-unit
    # percentiles.
    trial_s = [s for unit in profiled for s in unit["trial_s"]]
    samples["campaign.trial_s_p50"] = [statistics.median(trial_s)]
    samples["campaign.trial_s_p90"] = [
        statistics.quantiles(trial_s, n=10)[-1] if len(trial_s) > 1
        else trial_s[0]]
    return samples


def summarize(samples: dict, units_of: dict) -> dict:
    metrics = {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": units_of[name],
                         "q1": q1, "q3": q3, "n": len(values)}
    return metrics


def pooled_counters(pairs) -> dict:
    """Registry counters summed over the first unit of every pair."""
    pooled = {}
    for unit in pairs[::2]:
        for name, value in unit["counters"].items():
            pooled[name] = pooled.get(name, 0) + value
    return pooled


def check_units(workload: str, pairs) -> list:
    """Every failed output check: each unit's own, the workload's
    outcome checks on counters pooled over the run, and digest
    agreement -- both units of a pair share a seed, so tracing and
    profiling must not change a single simulated counter."""
    from benchmarks.perf.unit import outcome_checks

    failures = [f"{u['mode']} seed {u['seed']}: {c['name']} ({c['detail']})"
                for u in pairs for c in u["checks"] if not c["ok"]]
    failures += [f"pooled: {c['name']} ({c['detail']})"
                 for c in outcome_checks(workload, pooled_counters(pairs))
                 if not c["ok"]]
    for first, second in zip(pairs[::2], pairs[1::2]):
        if first["digest"] != second["digest"]:
            failures.append(f"seed {first['seed']}: {first['mode']} and "
                            f"{second['mode']} outputs differ")
    return failures


# ----------------------------------------------------------------------
# Runs.
# ----------------------------------------------------------------------

def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def manifest() -> dict:
    return {"git_revision": git_revision(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine()}


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool, repeat: int, benchmark: dict) -> dict:
    """One run: measured pairs of one workload, summarized."""
    section = "per_layer" if trace else "end_to_end"
    units_of = {m["name"]: m["unit"] for m in benchmark[section]}
    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    started = time.perf_counter()
    from benchmarks.perf.unit import failed_fraction

    units = run_units(workload, seed, seconds, trace, smoke)
    pairs = [u for u in units if u["mode"] != "setup"]
    samples = per_layer(units) if trace else end_to_end(units)
    failures = check_units(workload, pairs)
    measured = [u for u in units if u["mode"] in ("untraced", "profile")]
    return {
        "workload": workload, "seed": seed, "repeat": repeat,
        "trace": trace, "smoke": smoke, "started_at": started_at,
        "wall_s": time.perf_counter() - started,
        "executor": units[0].get("executor"),
        "correct": not failures, "check_failures": failures,
        "attempted": sum(u["attempted"] for u in measured),
        "failed": sum(u["failed"] for u in measured),
        "failed_fraction": failed_fraction(pooled_counters(pairs)),
        "digest": hashlib.sha256(" ".join(
            u["digest"] for u in pairs[::2]).encode()).hexdigest(),
        "metrics": summarize(samples, units_of),
        "units": [{k: v for k, v in u.items() if k != "counters"}
                  for u in units],
    }


def main_run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds or benchmark["run_seconds"]
    runs = []
    for repeat in range(args.repeats):
        for workload in workloads:
            run = measure(workload, args.seed + repeat, seconds, args.trace,
                          args.smoke, repeat, benchmark)
            runs.append(run)
            for name, metric in run["metrics"].items():
                print(f"{workload:16} seed {run['seed']:<6} {name:32} "
                      f"{metric['value']:.6g} {metric['unit']} "
                      f"[q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, "
                      f"n {metric['n']}]")
            for failure in run["check_failures"]:
                print(f"{workload:16} CHECK FAILED: {failure}")
    out = Path(args.out) if args.out else RESULTS_DIR / (
        f"{datetime.datetime.now():%Y%m%d-%H%M%S}-"
        f"{args.workload or 'all'}-s{args.seed}-t{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"schema": SCHEMA, "manifest": manifest(),
                               "runs": runs}, indent=1) + "\n")
    print(f"result: {out}")
    correct = all(run["correct"] for run in runs)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{run['workload']}.s{run['seed']}.{name}": metric
                   for run in runs for name, metric in run["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from benchmarks.perf.compare import main as compare_main
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="Measure the repository benchmark's workloads.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer profile instead of end-to-end")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, seeds --seed + repeat")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, one pair per run")
    parser.add_argument("--out", help="result file "
                        "(default: benchmarks/results/perf/<stamp>.json)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so a running unit is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return main_run(args)


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
