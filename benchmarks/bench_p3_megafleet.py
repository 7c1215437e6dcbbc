"""P3 — the sharded megafleet: 100k+ clients, one population.

Proves the two claims the sharding layer makes and lands the megafleet
point on the repo's perf trajectory:

* **Exactness** — a ``shards=1`` serial world and a K-shard run fold to
  byte-identical telemetry: the full snapshot at fixed K across
  executor modes, and the population-invariant subset across shard
  counts (K=1 vs K=4, three seeds, on the shard-invariant spec).
* **Scale** — a ≥100k-client population (K=8, one provider corrupted)
  completes, and its victim fraction lands on the same corruption
  trend the 1k-client E2-style population measures: sharding changes
  the execution, never the experiment.

Full runs merge a ``megafleet`` block (clients, shards, rounds/s,
rounds/s-per-shard, peak RSS, victim fraction) into the committed
``BENCH_netsim.json`` trajectory next to the fast-path numbers;
``bench_perf_netsim`` preserves the block when it refreshes its own.
Smoke runs shrink the megafleet to 2 shards over ~1k clients and keep
every byte-equality check.
"""

import json
import resource
import time
from pathlib import Path

from repro.population.sharding import (
    ShardedFleet,
    invariant_snapshot_json,
    shard_invariant_spec,
)
from repro.scenarios.spec import materialize, population_spec

from benchmarks.conftest import run_once

#: Committed perf-trajectory file the megafleet block merges into.
TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_netsim.json"

#: Seeds for every byte-equality check (equality must hold per seed).
EQUALITY_SEEDS = (101, 202, 303)

#: The megafleet's victim fraction must sit within this of the
#: 1k-client reference population under the same corruption (full runs).
TREND_TOLERANCE = 0.05

FULL = {"clients": 100_000, "shards": 8, "rounds": 2,
        "reference_clients": 1_000, "invariant_clients": 48,
        "fixed_k_clients": 16}
SMOKE = {"clients": 1_000, "shards": 2, "rounds": 2,
         "reference_clients": 200, "invariant_clients": 32,
         "fixed_k_clients": 16}


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_cross_shard_equality(clients: int) -> int:
    """K=1 vs K=4 on the shard-invariant spec: the population-invariant
    telemetry subset must fold to identical bytes. Returns the number
    of seeds checked (asserts on every one)."""
    for seed in EQUALITY_SEEDS:
        reference = materialize(shard_invariant_spec(clients, shards=1),
                                seed)
        reference.run()
        expected = invariant_snapshot_json(reference.telemetry)
        sharded = materialize(shard_invariant_spec(clients, shards=4), seed)
        sharded.run()
        got = sharded.invariant_snapshot_json()
        assert got == expected, (
            f"seed {seed}: K=4 invariant fold diverged from the serial "
            f"world ({len(got)} vs {len(expected)} bytes)")
    return len(EQUALITY_SEEDS)


def _check_fixed_shard_equality(clients: int) -> int:
    """Same K, different executors: the *full* folded snapshot must be
    byte-identical — execution mode cannot touch the telemetry."""
    spec = population_spec(num_clients=clients, rounds=2, corrupted=1)
    for seed in EQUALITY_SEEDS:
        folds = {}
        for mode in ("serial", "processes"):
            fleet = ShardedFleet(spec, seed, shards=4, workers=4)
            fleet.executor = mode
            fleet.run()
            folds[mode] = fleet.telemetry.snapshot_json()
        assert folds["serial"] == folds["processes"], (
            f"seed {seed}: fork-pool fold diverged from serial")
    return len(EQUALITY_SEEDS)


def _run_population(clients: int, shards: int, rounds: int, seed: int):
    spec = population_spec(num_clients=clients, rounds=rounds,
                           corrupted=1, shards=shards)
    world = materialize(spec, seed)
    started = time.perf_counter()
    outcomes = world.run()
    elapsed = time.perf_counter() - started
    return outcomes, elapsed, world


def bench_p3_megafleet(benchmark, emit_table, smoke, results_dir):
    sizes = SMOKE if smoke else FULL

    def measure() -> dict:
        checked_cross = _check_cross_shard_equality(
            sizes["invariant_clients"])
        checked_fixed = _check_fixed_shard_equality(
            sizes["fixed_k_clients"])

        # The 1k-class reference population: same corruption, one world.
        ref_outcomes, ref_wall, _ = _run_population(
            sizes["reference_clients"], shards=1,
            rounds=sizes["rounds"], seed=42)

        # The megafleet point.
        outcomes, wall, world = _run_population(
            sizes["clients"], shards=sizes["shards"],
            rounds=sizes["rounds"], seed=42)
        shard_count = world.shards if isinstance(world, ShardedFleet) else 1
        return {
            "clients": sizes["clients"],
            "shards": shard_count,
            "rounds": outcomes.rounds,
            "wall_s": round(wall, 3),
            "rounds_per_s": round(outcomes.rounds / wall, 1),
            "rounds_per_s_per_shard": round(
                outcomes.rounds / wall / shard_count, 1),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
            "victim_fraction": round(outcomes.victim_fraction, 4),
            "availability": round(outcomes.availability, 4),
            "executed_mode": (world.executed_mode
                              if isinstance(world, ShardedFleet) else "legacy"),
            "reference_clients": sizes["reference_clients"],
            "reference_victim_fraction": round(
                ref_outcomes.victim_fraction, 4),
            "reference_wall_s": round(ref_wall, 3),
            "equality_seeds_cross_k": checked_cross,
            "equality_seeds_fixed_k": checked_fixed,
        }

    current = run_once(benchmark, measure)

    payload = {
        "experiment": "p3_megafleet",
        "mode": "smoke" if smoke else "full",
        "current": current,
        "trend_tolerance": TREND_TOLERANCE,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "p3_megafleet.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # Full runs land the megafleet block on the committed trajectory
    # (merged, not rewritten — the fast-path numbers stay untouched).
    if not smoke and TRAJECTORY_PATH.exists():
        trajectory = json.loads(TRAJECTORY_PATH.read_text())
        trajectory["megafleet"] = {
            key: current[key]
            for key in ("clients", "shards", "rounds", "wall_s",
                        "rounds_per_s", "rounds_per_s_per_shard",
                        "peak_rss_mb", "victim_fraction",
                        "executed_mode", "reference_clients",
                        "reference_victim_fraction")}
        TRAJECTORY_PATH.write_text(
            json.dumps(trajectory, indent=2, sort_keys=True) + "\n")

    emit_table(
        "p3_megafleet",
        f"P3: sharded megafleet "
        f"({'smoke' if smoke else 'full'} workload)",
        ["metric", "value"],
        [[name, value if isinstance(value, str) else f"{value:g}"]
         for name, value in current.items()],
        notes="Byte-equality checks ran first (cross-K invariant fold "
              "over 3 seeds; fixed-K serial/processes full-fold "
              "over 3 seeds) — the megafleet numbers are only reported "
              "because the folds matched. victim_fraction must track "
              "the reference population within "
              f"{TREND_TOLERANCE} (full runs).")

    drift = abs(current["victim_fraction"]
                - current["reference_victim_fraction"])
    if not smoke:
        assert current["clients"] >= 100_000
        assert drift <= TREND_TOLERANCE, (
            f"megafleet victim fraction {current['victim_fraction']} "
            f"drifted {drift:.4f} from the "
            f"{current['reference_clients']}-client reference "
            f"{current['reference_victim_fraction']} "
            f"(tolerance {TREND_TOLERANCE})")
