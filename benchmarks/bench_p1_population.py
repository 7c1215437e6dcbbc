"""P1 — the paper's corruption bound measured over a client population.

The single-client experiments (E2) measure the attacker's pool share
for one client per world and aggregate across trials. This benchmark
stands up whole fleets (hundreds to a thousand clients in one simulated
internet) and reads the *population* quantities straight from the
streaming telemetry pipeline: the fraction of clients that synced
against an attacker server, availability, and the clock-error
distribution.

Declared in grid-over-spec form: one base
:func:`repro.scenarios.spec.population_spec` with the campaign sweeping
dotted spec paths (``fleet.size`` × ``provider.corrupted``) through
:func:`repro.campaign.spec_trial`, so every point's full world
description lands verbatim in ``results/p1_population.json`` — along
with each trial's telemetry snapshot (``include_telemetry``), which the
bench asserts against the scalar metrics.

Claims reproduced at population scale:

* victim fraction grows with the corrupted-provider fraction and, with
  Algorithm 1's truncate-and-combine, is pinned to ``corrupted / N`` —
  the same trend the single-client E2 sweep measures as the attacker's
  pool share;
* a fault-free population campaign is bit-identical between serial and
  multiprocessing execution (per-trial telemetry registries, per-trial
  derived seeds).
"""

from repro.campaign import (
    CampaignRunner,
    ParameterGrid,
    spec_trial,
)
from repro.scenarios.spec import pool_spec, population_spec

from benchmarks.conftest import CACHE_DIR, JOURNAL_DIR, run_once

NUM_PROVIDERS = 3
CORRUPTED = (0, 1, 2, 3)
# Same forged set the population compiler synthesises by default, so
# the single-client reference measures exactly the same attack.
FORGED = tuple(f"203.0.113.{i + 1}" for i in range(4))

BASE_SPEC = population_spec(rounds=5, mean_interval=16.0,
                            arrival="periodic", churn_rate=0.05,
                            num_providers=NUM_PROVIDERS)

GRID = ParameterGrid.over_spec(
    BASE_SPEC,
    {"fleet.size": (250, 1000), "provider.corrupted": CORRUPTED},
    name="p1_population",
)
RUNNER = CampaignRunner(spec_trial, trials_per_point=1, base_seed=1000,
                        include_telemetry=True, cache_dir=CACHE_DIR,
                        journal_dir=JOURNAL_DIR)

SMOKE_BASE = population_spec(rounds=3, churn_rate=0.05,
                             num_providers=NUM_PROVIDERS)
SMOKE_GRID = ParameterGrid.over_spec(
    SMOKE_BASE,
    {"provider.corrupted": (0, 1, 2)},
    fixed={"fleet.size": 200},
    name="p1_population_smoke",
)
SMOKE_RUNNER = CampaignRunner(spec_trial, base_seed=1000,
                              include_telemetry=True, cache_dir=CACHE_DIR)

# Single-client E2 reference sweep (attacker share of one generated
# pool per world) for the full-grid trend comparison.
E2_REFERENCE_GRID = ParameterGrid.over_spec(
    pool_spec(num_providers=NUM_PROVIDERS, answers_per_query=4),
    {"provider.corrupted": CORRUPTED},
    fixed={"provider.behavior": "substitute", "provider.forged": FORGED},
    name="p1_e2_reference",
)
E2_REFERENCE_RUNNER = CampaignRunner(spec_trial, trials_per_point=3,
                                     base_seed=1000, cache_dir=CACHE_DIR)


def bench_p1_population(benchmark, emit_table, smoke, results_dir):
    grid, runner = (SMOKE_GRID, SMOKE_RUNNER) if smoke else (GRID, RUNNER)
    result = run_once(benchmark, lambda: runner.run(grid))
    result.write_json(results_dir / "p1_population.json")

    rows = []
    for summary in result.summaries:
        rows.append([
            summary.params["fleet.size"],
            f"{summary.params['provider.corrupted']}/{NUM_PROVIDERS}",
            f"{summary['victim_fraction'].mean:.3f}",
            f"{summary['availability'].mean:.0%}",
            f"{summary['shifted_fraction'].mean:.3f}",
            f"{summary['mean_abs_clock_error'].mean * 1000:.1f} ms",
            int(summary["churn_leaves"].mean),
            int(summary["datagrams"].mean),
        ])
    emit_table(
        "p1_population",
        "P1: victim fraction across a client population "
        "(× corrupted provider fraction)",
        ["clients", "corrupted", "victim fraction", "availability",
         "shifted", "mean |clock err|", "churn", "datagrams"],
        rows,
        notes="Each row is one world, described end-to-end by the "
              "ScenarioSpec recorded in the JSON export: N clients "
              "resolving pool.ntp.org through all providers "
              "(Algorithm 1 combine), syncing once per round against a "
              "pool pick. Victim fraction tracks corrupted/N — the "
              "population-scale statement of the single-client E2 "
              "share bound. Metrics stream from the telemetry "
              "registry, whose snapshot rides in the JSON too.")

    # The exported registry snapshots agree with the scalar metrics
    # (one trial per point, so the totals must match exactly).
    for summary in result.summaries:
        snapshot = summary.telemetry[0]
        assert (snapshot["counter"]["net.datagrams_sent"]
                == summary["datagrams"].mean), summary.point_key

    def victim(**subset) -> float:
        return result.metric("victim_fraction", **subset).mean

    sizes = (200,) if smoke else tuple(GRID.axes["fleet.size"])
    corrupted_values = (SMOKE_GRID.axes["provider.corrupted"]
                        if smoke else CORRUPTED)
    for size in sizes:
        fractions = [victim(**{"fleet.size": size,
                               "provider.corrupted": c})
                     for c in corrupted_values]
        # The acceptance gate: monotone in the corrupted fraction.
        assert fractions == sorted(fractions), (
            f"victim fraction not monotone at {size} clients: {fractions}")
        assert fractions[0] == 0.0
        # Fault-free worlds lose no rounds.
        for c in corrupted_values:
            assert result.metric(
                "availability",
                **{"fleet.size": size, "provider.corrupted": c}).mean == 1.0

    if not smoke:
        # The 1k-client fleet reproduces the single-client E2 trend:
        # population victim fraction ≈ single-client attacker share.
        reference = E2_REFERENCE_RUNNER.run(E2_REFERENCE_GRID)
        for c in CORRUPTED:
            single = reference.metric("attacker_share",
                                      **{"provider.corrupted": c}).mean
            fleet = victim(**{"fleet.size": 1000, "provider.corrupted": c})
            assert abs(fleet - single) < 0.05, (
                f"corrupted={c}: population {fleet:.3f} vs "
                f"single-client {single:.3f}")

    # Serial and parallel campaign execution of a fault-free population
    # run are bit-identical (no shared cache, so both really execute).
    check_grid = ParameterGrid.over_spec(
        population_spec(rounds=2, num_providers=NUM_PROVIDERS),
        {"provider.corrupted": (0, 2)},
        fixed={"fleet.size": 60 if smoke else 120},
        name="p1_serial_parallel",
    )
    serial = CampaignRunner(spec_trial, base_seed=77,
                            workers=0).run(check_grid)
    parallel = CampaignRunner(spec_trial, base_seed=77,
                              workers=4).run(check_grid)
    assert ([record.metrics for record in serial.records]
            == [record.metrics for record in parallel.records]), (
        "population campaign records differ between serial and parallel")
    assert ([record.telemetry for record in serial.records]
            == [record.telemetry for record in parallel.records]), (
        "telemetry snapshots differ between serial and parallel")
