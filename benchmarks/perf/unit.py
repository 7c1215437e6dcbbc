"""One measured unit of one workload, run in a fresh interpreter.

``python -m benchmarks.perf.unit WORKLOAD MODE SEED [--smoke]`` builds
the workload's world (or campaign) from its spec and the seed, runs it
through the public API, checks its outputs and prints one JSON line.
``MODE`` is ``untraced`` (what users run), ``traced`` (the program's
own :class:`~repro.telemetry.trace.Tracer` installed, or
``include_traces`` for the campaign), ``profile`` (the layer profiler
from :mod:`benchmarks.perf.profiler` installed), ``reference`` (the
untraced baseline of ``profile``) or ``setup`` (build only, no run).

Set-up time is measured from interpreter start-up to a ready world, so
work moved into imports or ``materialize`` shows in ``setup_s``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
WORK_DIR = ROOT / "benchmarks" / "results" / "perf" / "work"

#: ``reference`` is ``untraced`` with the profile's executor: the
#: baseline ``profile.overhead`` is measured against.
MODES = ("untraced", "traced", "profile", "reference", "setup")

#: Workload sizes: (clients, rounds per client), or for the campaign
#: (clients per trial, trials per grid point). An untraced full-size
#: unit runs 3-5 s, so a 20 s run holds two untraced/traced pairs. The
#: udp fleet keeps 3000 clients with one round each: the heap size,
#: not the round count, sets its collector share.
SIZES = {
    "udp-fleet": {"full": (3000, 1), "smoke": (30, 1)},
    "doh-fleet": {"full": (24, 1), "smoke": (3, 1)},
    "iterative-chaos": {"full": (500, 6), "smoke": (40, 6)},
    "campaign-sweep": {"full": (40, 3), "smoke": (4, 1)},
}

#: The campaign's grid axes (12 points) and rounds per trial.
CAMPAIGN_AXES = {"provider.corrupted": (0, 1, 2),
                 "fleet.min_answers": (None, 2),
                 "network.fault.loss_rate": (0.0, 0.05)}
CAMPAIGN_ROUNDS = 3


def fleet_spec(workload: str, clients: int, rounds: int):
    """The scenario spec of a fleet workload."""
    from repro.chaos import CacheWipe, ChaosSpec, Overload, ServerOutage
    from repro.dns.hierarchy import HierarchySpec
    from repro.scenarios.spec import ResolverSpec, population_spec, set_path

    if workload == "udp-fleet":
        return population_spec(num_clients=clients, rounds=rounds,
                               corrupted=1)
    if workload == "doh-fleet":
        return set_path(population_spec(num_clients=clients, rounds=rounds,
                                        corrupted=1),
                        "fleet.transport", "doh")
    # iterative-chaos. Overload gates only the DoH front end when
    # providers serve DoH, hence serve="dns". The overload rate scales
    # with the population so the queue overflows at any size.
    spec = population_spec(num_clients=clients, rounds=rounds, pool_ttl=1,
                           min_answers=2)
    spec = set_path(spec, "provider.serve", "dns")
    spec = set_path(spec, "provider.resolver", ResolverSpec(
        mode="iterative",
        hierarchy=HierarchySpec(root_ttl=5, tld_ttl=5, glue=False)))
    return set_path(spec, "chaos", ChaosSpec(events=(
        ServerOutage(scope="providers", fraction=0.3, at=20, duration=20),
        CacheWipe(at=50),
        Overload(scope="providers", at=60, duration=20,
                 qps=clients / 20, queue_depth=16))))


def counter_totals(snapshots) -> dict:
    """Registry counters summed over snapshots and over labels
    (``transport.exchanges{label=...}`` adds into
    ``transport.exchanges``)."""
    totals: dict = {}
    for snapshot in snapshots:
        for key, value in json.loads(snapshot)["counter"].items():
            base = key.split("{", 1)[0]
            totals[base] = totals.get(base, 0) + value
            if base != key:
                totals[key] = totals.get(key, 0) + value
    return totals


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child, in MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


class Checks:
    """Output checks; a failed one fails the run."""

    def __init__(self) -> None:
        self.results = []

    def __call__(self, name: str, ok: bool, detail: object = "") -> None:
        self.results.append({"name": name, "ok": bool(ok),
                             "detail": str(detail)})


def check_fleet_counters(check: Checks, counters: dict, expected_rounds: int,
                         prefix: str = "") -> None:
    """The accounting every fleet world must satisfy once idle."""
    rounds = counters.get("pop.rounds", 0)
    check(prefix + "rounds", rounds == expected_rounds,
          f"{rounds} == {expected_rounds}")
    settled = counters.get("pop.rounds_ok", 0) + counters.get(
        "pop.rounds_failed", 0)
    check(prefix + "rounds_settled", settled == rounds,
          f"ok + failed = {settled} == {rounds}")
    sent = counters.get("net.datagrams_sent", 0)
    landed = (counters.get("net.datagrams_delivered", 0)
              + counters.get("net.datagrams_dropped", 0))
    check(prefix + "datagrams_conserved", sent == landed,
          f"sent {sent} == delivered + dropped {landed}")


def failed_fraction(counters: dict) -> float:
    rounds = counters.get("pop.rounds", 0)
    failed = (counters.get("pop.rounds_failed", 0)
              + counters.get("pop.sync_timeouts", 0))
    return failed / rounds if rounds else 0.0


def outcome_checks(workload: str, counters: dict) -> list:
    """The simulated outcomes a fleet workload must show, checked on
    counters pooled over a run's units (a single small world can miss
    a statistical band by chance)."""
    check = Checks()
    victims = counters.get("pop.victim_rounds", 0)
    syncs = counters.get("pop.syncs", 0)
    failed = failed_fraction(counters)
    if workload == "udp-fleet":
        # One corrupted provider of three: a third of the syncs land on
        # the attacker. The band widens to four binomial standard
        # deviations for the few syncs of a smoke run.
        share = victims / syncs if syncs else 0.0
        band = max(0.05, 4 * math.sqrt(2 / 9 / max(syncs, 1)))
        check("victim_fraction", abs(share - 1 / 3) <= band,
              f"{share:.4f} within {band:.3f} of 1/3")
    elif workload == "doh-fleet":
        check("victim_rounds", 0 < victims < syncs,
              f"0 < {victims} < {syncs}")
        check("no_failures", failed == 0, failed)
    elif workload == "iterative-chaos":
        check("no_victims", victims == 0, victims)
        check("failed_fraction", 0 < failed <= 0.1, failed)
        check("overload_rejects", counters.get("srv.rejected", 0) > 0,
              counters.get("srv.rejected", 0))
        check("cache_misses", counters.get("dns.cache.misses", 0) > 0,
              counters.get("dns.cache.misses", 0))
    return check.results


def run_fleet(workload: str, mode: str, seed: int, size) -> dict:
    clients, rounds = size
    spec = fleet_spec(workload, clients, rounds)
    profiler, _ = _start_profiler() if mode == "profile" else (None, None)
    # Look the compiler up after the profiler patched it.
    from repro.scenarios.spec import materialize
    from repro.telemetry.trace import Tracer, use_tracer

    scope = use_tracer(Tracer()) if mode == "traced" else nullcontext()
    started = time.perf_counter()
    with scope:
        world = materialize(spec, seed)
        ready = time.perf_counter()
        if mode == "setup":
            return {"setup_s": ready - STARTED}
        outcomes = world.run()
        finished = time.perf_counter()
    if profiler is not None:
        profiler.stop()
    counters = counter_totals([world.telemetry.snapshot_json()])
    check = Checks()
    check("idle", world.simulator.pending_events == 0,
          world.simulator.pending_events)
    check_fleet_counters(check, counters, clients * rounds)
    failed = failed_fraction(counters)
    result = {
        "rounds": outcomes.rounds,
        "setup_s": ready - STARTED,
        "run_s": finished - ready,
        "trial_s": [finished - started],
        "attempted": outcomes.rounds,
        "failed": 0,
        "failed_fraction": failed,
        "digest": _digest({k: v for k, v in counters.items()
                           if k.startswith("pop.")}),
        "counters": counters,
        "checks": check.results,
    }
    if profiler is not None:
        result["profile"] = _profile_report(profiler)
    return result


def run_campaign(mode: str, seed: int, size) -> dict:
    clients, trials_per_point = size
    profiler, uninstall = (_start_profiler() if mode == "profile"
                           else (None, None))
    from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
    from repro.scenarios.spec import population_spec

    trial_s = []

    def timed_trial(params, trial_seed):
        started = time.perf_counter()
        try:
            return spec_trial(params, trial_seed)
        finally:
            trial_s.append(time.perf_counter() - started)

    grid = ParameterGrid.over_spec(
        population_spec(num_clients=clients, rounds=CAMPAIGN_ROUNDS),
        CAMPAIGN_AXES, name="perf-campaign-sweep")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        # The profile runs serially so the wrappers see every trial.
        runner = CampaignRunner(
            timed_trial if mode == "profile" else spec_trial,
            trials_per_point=trials_per_point, base_seed=seed,
            include_telemetry=True, include_traces=mode == "traced",
            executor=("serial" if mode in ("profile", "reference")
                      else "adaptive"),
            cache_dir=work / "cache", journal_dir=work / "journal")
        grid.points()
        ready = time.perf_counter()
        if mode == "setup":
            return {"setup_s": ready - STARTED}
        result = runner.run(grid)
        finished = time.perf_counter()
        if profiler is not None:
            profiler.stop()
            profile = _profile_report(profiler)
            uninstall()
            replayed = runner.run(grid)
            replay_s = time.perf_counter() - finished
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check = Checks()
    expected = len(grid.points()) * trials_per_point
    check("records", len(result.records) == expected,
          f"{len(result.records)} == {expected}")
    check("no_failed_trials", result.failed == 0, result.failed)
    snapshots = []
    for record in result.records:
        label = f"{record.point_key}#{record.trial}."
        if record.telemetry is None:
            check(label + "telemetry", False, "missing")
            continue
        snapshots.append(record.telemetry)
        check_fleet_counters(check, counter_totals([record.telemetry]),
                             clients * CAMPAIGN_ROUNDS, prefix=label)
        if record.params["network.fault.loss_rate"] == 0.0:
            check(label + "availability", record.metrics["availability"] == 1.0,
                  record.metrics["availability"])
    counters = counter_totals(snapshots)
    results = [{k: v for k, v in point.items() if k != "traces"}
               for point in result.to_json()["results"]]
    report = {
        "rounds": int(sum(r.metrics.get("rounds", 0)
                          for r in result.records)),
        "setup_s": ready - STARTED,
        "run_s": finished - ready,
        "trial_s": trial_s,
        "attempted": len(result.records),
        "failed": result.failed,
        "failed_fraction": failed_fraction(counters),
        "executor": result.mode,
        "digest": _digest(results),
        "counters": counters,
        "checks": check.results,
    }
    if profiler is not None:
        check("replay_cached", replayed.mode == "cached", replayed.mode)
        report["replay_s"] = replay_s
        report["profile"] = profile
    return report


def _start_profiler():
    """An installed, started layer profiler and its uninstaller."""
    from benchmarks.perf.profiler import LayerProfiler, install

    profiler = LayerProfiler()
    uninstall = install(profiler)
    profiler.start()
    return profiler, uninstall


def _profile_report(profiler) -> dict:
    return {
        "self_s": dict(profiler.self_s),
        "shares": profiler.shares(),
        "entries": dict(profiler.entries),
        "calls": dict(profiler.calls),
        "events": profiler.events,
        "gen2_collections": profiler.gen2_collections,
    }


def run_unit(workload: str, mode: str, seed: int, smoke: bool) -> dict:
    size = SIZES[workload]["smoke" if smoke else "full"]
    if workload == "campaign-sweep":
        result = run_campaign(mode, seed, size)
    else:
        result = run_fleet(workload, mode, seed, size)
    result.update(workload=workload, mode=mode, seed=seed)
    if mode != "setup":
        result.update(rounds_per_s=result["rounds"] / result["run_s"],
                      peak_rss_mb=_peak_rss_mb())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=SIZES)
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("seed", type=int)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_unit(args.workload, args.mode, args.seed,
                              args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
