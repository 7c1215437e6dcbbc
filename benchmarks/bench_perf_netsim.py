"""Perf — the netsim fast-path benchmark and the repo's perf trajectory.

Micro and macro throughput of the simulation stack, written as
machine-readable numbers so speedups stop being anecdotes:

* **events/sec** — raw :class:`~repro.netsim.simulator.Simulator` heap
  throughput (schedule + drain, no-op callbacks);
* **datagrams/sec** — full delivery-fabric round trips across a two-hop
  route, with and without an observing on-path tap (the tapped route
  compiles a flight plan with tap dispatch, the clean one skips it);
* **fleet rounds/sec** — the 1k-client population macro bench:
  resolve → combine → SNTP rounds through real DNS/UDP, the workload
  every `ClientFleet` scenario and campaign trial multiplies;
* **campaign wall-clock** — a pool-attack grid under the adaptive
  executor: a calibration probe decides per run whether the sweep runs
  serially, on a thread pool, or on the chunked ``imap_unordered``
  fork pool (``workers=4`` is the parallelism *cap*, not a mandate —
  on a single-core runner the probe keeps the sweep serial instead of
  paying pool startup for nothing, which is exactly the 0.9× regression
  the adaptive path fixes).

``BASELINE`` pins the numbers measured on this repository immediately
*before* the fast-path PR (flight-plan caching, slotted core objects,
memoized DNS codec) on the same machine the committed current numbers
were taken on. Every rate metric is best-of-``REPEATS`` — the
simulations are deterministic, so repeated runs measure identical work
and the max filters scheduler noise (both sides of the baseline
comparison were sampled the same way). Results land in
``BENCH_netsim.json``: the run artifact under ``results/``
(``results/smoke/`` for ``--smoke``), plus the committed copy at the
repository root — the perf trajectory the ROADMAP tracks — refreshed on
every full run. Full runs assert the fleet macro bench holds a ≥2.5×
speedup over the pre-PR baseline and that the campaign wall-clock is no
worse than it (≥1.0×); smoke runs only prove the harness end to end
(tiny workloads, no baseline comparison).
"""

import gc
import json
import resource
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.telemetry.trace import Tracer, use_tracer
from repro.netsim.address import Endpoint, ip
from repro.netsim.host import Host
from repro.netsim.internet import Internet, TapAction
from repro.netsim.link import LinkProfile
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.scenarios.spec import materialize, pool_spec, population_spec
from repro.util.rng import RngRegistry

from benchmarks.conftest import run_once

#: Schema of BENCH_netsim.json (see README "Performance harness").
#: v2 adds ``current.peak_rss_mb``, per-shard fleet throughput, and the
#: optional top-level ``megafleet`` block (landed by
#: ``bench_p3_megafleet`` and preserved across full runs here).
#: v3 adds ``current.fleet_rounds_per_s_traced`` (the fleet macro bench
#: under an installed tracer) and the tracer-off guard that full runs
#: assert against the previously committed trajectory.
SCHEMA = "bench-netsim/3"

#: Committed perf-trajectory point, refreshed by full (non-smoke) runs.
TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_netsim.json"

#: Pre-fast-path numbers (PR 4 tree) for the workloads below, measured
#: on the same machine that recorded the committed current numbers,
#: with the same best-of-``REPEATS`` sampling.
BASELINE = {
    "events_per_s": 216774.8,
    "datagrams_per_s_0tap": 45530.6,
    "datagrams_per_s_tapped": 42984.3,
    "fleet_rounds_per_s": 790.5,
    "campaign_wall_s": 10.014,
}

#: Samples per rate metric (the reported value is the fastest — see
#: module docstring).
REPEATS = 3

#: The macro-bench speedup the fast path must hold (full runs only).
TARGET_FLEET_SPEEDUP = 2.5

#: The campaign sweep must never lose to the pre-PR baseline again —
#: the adaptive executor's whole job (full runs only).
TARGET_CAMPAIGN_SPEEDUP = 1.0

#: The tracer-off fleet macro bench may drift at most this far below
#: the previously committed trajectory point — the observability
#: layer's zero-cost contract, measured rather than asserted (full
#: runs only; checked against the committed value *before* this run
#: refreshes it).
TRACER_OFF_TOLERANCE = 0.97

@contextmanager
def _quiesced_gc():
    """Collect up front, then keep the collector out of the timed
    region — the cycle collector firing mid-sample is pure noise, and
    both sides of the baseline comparison sampled this way."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


FULL = {"events": 200_000, "datagrams": 50_000,
        "fleet_clients": 1000, "fleet_rounds": 3,
        "campaign_trials": 4}
SMOKE = {"events": 20_000, "datagrams": 4_000,
         "fleet_clients": 200, "fleet_rounds": 2,
         "campaign_trials": 1}


def _bench_events(count: int) -> float:
    simulator = Simulator()
    noop = lambda: None  # noqa: E731 - the cheapest possible callback
    with _quiesced_gc():
        started = time.perf_counter()
        for index in range(count):
            simulator.schedule_at(index * 1e-6, noop)
        simulator.run()
        return count / (time.perf_counter() - started)


def _delivery_pair(tapped: bool):
    simulator = Simulator()
    registry = RngRegistry(7)
    topology = Topology(registry)
    topology.add_link("a", "m", LinkProfile.metro())
    topology.add_link("m", "b", LinkProfile.continental())
    internet = Internet(simulator, topology, registry)
    alpha = internet.add_host(Host("alpha", "a", [ip("10.0.0.1")]))
    beta = internet.add_host(Host("beta", "b", [ip("10.0.0.2")]))
    if tapped:
        internet.add_tap("a--m", lambda link, d: TapAction.passthrough())
    return internet, alpha, beta


def _bench_datagrams(count: int, tapped: bool) -> float:
    internet, alpha, beta = _delivery_pair(tapped)
    beta.bind(53, lambda datagram: None)
    sock = alpha.ephemeral_socket()
    destination = Endpoint(ip("10.0.0.2"), 53)
    payload = b"x" * 64
    with _quiesced_gc():
        started = time.perf_counter()
        for _ in range(count):
            sock.sendto(destination, payload)
            internet.simulator.run()
        return count / (time.perf_counter() - started)


def _bench_fleet(clients: int, rounds: int, shards: int = 1,
                 traced: bool = False) -> dict:
    # Publishers capture the ambient tracer at construction, so the
    # traced variant must materialize *inside* the tracer scope.
    scope = use_tracer(Tracer()) if traced else nullcontext()
    with scope:
        world = materialize(
            population_spec(num_clients=clients, rounds=rounds,
                            shards=shards),
            42)
        with _quiesced_gc():
            started = time.perf_counter()
            outcomes = world.run()
            elapsed = time.perf_counter() - started
    return {"rounds_per_s": outcomes.rounds / elapsed,
            "wall_s": elapsed, "rounds": outcomes.rounds,
            "shards": shards}


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _bench_campaign(trials: int) -> dict:
    grid = ParameterGrid.over_spec(
        pool_spec(pool_size=24, answers_per_query=4),
        {"provider.count": (3, 5), "provider.corrupted": (0, 1, 2)},
        fixed={"provider.forged": ("203.0.113.1", "203.0.113.2")},
        name="perf_campaign")
    # workers=4 caps the adaptive executor; the calibration probe picks
    # the actual mode (the baseline run *forced* a 4-worker fork pool,
    # which is where the 0.9x came from on single-core runners).
    runner = CampaignRunner(spec_trial, trials_per_point=trials,
                            base_seed=55, workers=4)
    started = time.perf_counter()
    result = runner.run(grid)
    return {"wall_s": time.perf_counter() - started, "mode": result.mode}


def bench_perf_netsim(benchmark, emit_table, smoke, results_dir):
    sizes = SMOKE if smoke else FULL

    def measure() -> dict:
        repeats = 1 if smoke else REPEATS
        fleets = [_bench_fleet(sizes["fleet_clients"], sizes["fleet_rounds"])
                  for _ in range(repeats)]
        best_fleet = max(fleets, key=lambda f: f["rounds_per_s"])
        traced = [_bench_fleet(sizes["fleet_clients"], sizes["fleet_rounds"],
                               traced=True)
                  for _ in range(repeats)]
        best_traced = max(traced, key=lambda f: f["rounds_per_s"])
        campaigns = [_bench_campaign(sizes["campaign_trials"])
                     for _ in range(repeats)]
        best_campaign = min(campaigns, key=lambda c: c["wall_s"])
        return {
            "events_per_s": round(
                max(_bench_events(sizes["events"])
                    for _ in range(repeats)), 1),
            "datagrams_per_s_0tap": round(
                max(_bench_datagrams(sizes["datagrams"], tapped=False)
                    for _ in range(repeats)), 1),
            "datagrams_per_s_tapped": round(
                max(_bench_datagrams(sizes["datagrams"], tapped=True)
                    for _ in range(repeats)), 1),
            "fleet_rounds_per_s": round(best_fleet["rounds_per_s"], 1),
            "fleet_rounds_per_s_traced": round(
                best_traced["rounds_per_s"], 1),
            "fleet_rounds_per_s_per_shard": round(
                best_fleet["rounds_per_s"] / best_fleet["shards"], 1),
            "fleet_shards": best_fleet["shards"],
            "fleet_wall_s": round(best_fleet["wall_s"], 3),
            "campaign_wall_s": round(best_campaign["wall_s"], 3),
            "campaign_mode": best_campaign["mode"],
            "peak_rss_mb": round(_peak_rss_mb(), 1),
        }

    # The tracer-off guard compares against the trajectory committed by
    # the *previous* full run, so capture it before this run refreshes
    # the file.
    committed = None
    if TRAJECTORY_PATH.exists():
        committed = json.loads(TRAJECTORY_PATH.read_text())

    current = run_once(benchmark, measure)

    # Smoke workloads are deliberately tiny: their numbers prove the
    # harness, not the speedup, so ratios are only computed when the
    # workload matches the baseline's.
    speedup = {}
    if not smoke:
        speedup = {
            name: round(current[name] / BASELINE[name], 2)
            for name in BASELINE if name != "campaign_wall_s"
        }
        speedup["campaign_wall_s"] = round(
            BASELINE["campaign_wall_s"] / current["campaign_wall_s"], 2)

    payload = {
        "schema": SCHEMA,
        "mode": "smoke" if smoke else "full",
        "workload": dict(sizes),
        "baseline": dict(BASELINE),
        "current": current,
        "speedup": speedup,
        "target_fleet_speedup": TARGET_FLEET_SPEEDUP,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "BENCH_netsim.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if not smoke:
        # Refresh the committed trajectory without dropping the
        # megafleet block bench_p3_megafleet owns.
        if committed is not None and "megafleet" in committed:
            payload["megafleet"] = committed["megafleet"]
        TRAJECTORY_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")

    rows = [[name,
             f"{BASELINE[name]:g}" if name in BASELINE else "-",
             value if isinstance(value, str) else f"{value:g}",
             f"{speedup[name]:.2f}x" if name in speedup else "-"]
            for name, value in current.items()]
    emit_table(
        "perf_netsim",
        f"Perf: netsim fast-path throughput "
        f"({'smoke' if smoke else 'full'} workload)",
        ["metric", "pre-PR baseline", "current", "speedup"],
        rows,
        notes="Baseline: pre-fast-path tree, same machine, same "
              "best-of-N sampling. events/datagrams are rates (higher "
              "is better); campaign_wall_s is wall-clock (speedup is "
              "the ratio of walls) under the adaptive executor — "
              "campaign_mode records what its calibration probe chose "
              "(the 0.9x-regressed baseline forced a 4-worker fork "
              "pool even on single-core runners). Smoke workloads are "
              "scaled down and never compared against the full-size "
              "baseline.")

    if not smoke:
        assert speedup["fleet_rounds_per_s"] >= TARGET_FLEET_SPEEDUP, (
            f"fleet macro bench regressed: {speedup['fleet_rounds_per_s']}x "
            f"vs required {TARGET_FLEET_SPEEDUP}x "
            f"({current['fleet_rounds_per_s']} rounds/s against baseline "
            f"{BASELINE['fleet_rounds_per_s']})")
        assert speedup["campaign_wall_s"] >= TARGET_CAMPAIGN_SPEEDUP, (
            f"campaign sweep regressed: {speedup['campaign_wall_s']}x "
            f"vs required {TARGET_CAMPAIGN_SPEEDUP}x "
            f"({current['campaign_wall_s']}s in mode "
            f"{current['campaign_mode']!r} against baseline "
            f"{BASELINE['campaign_wall_s']}s)")
        # Zero-cost contract: with no tracer installed, the fleet macro
        # bench must hold the previously committed trajectory point to
        # within the tolerance — instrumentation guards are free.
        if committed is not None and committed.get("mode") == "full":
            floor = (committed["current"]["fleet_rounds_per_s"]
                     * TRACER_OFF_TOLERANCE)
            assert current["fleet_rounds_per_s"] >= floor, (
                f"tracer-off fleet bench regressed: "
                f"{current['fleet_rounds_per_s']} rounds/s vs committed "
                f"{committed['current']['fleet_rounds_per_s']} "
                f"(floor {floor:.1f} at {TRACER_OFF_TOLERANCE:.0%})")
