"""C1 — chaos timelines: outage fraction × quorum, and MTTR vs duration.

The robustness experiment the chaos layer exists for: client
populations keep acquiring pools and syncing while a scheduled
:class:`~repro.chaos.ServerOutage` crashes a fraction of the DoH
providers mid-run, and the graceful-degradation question is whether the
E6 quorum extension buys availability the paper's strict
all-must-answer combination gives up.  A fleet spells its quorum
``fleet.min_answers``; ``pool.min_answers``, E6's single-client axis,
raises on a fleet spec.

Claims measured:

* at every outage fraction, quorum availability is at least strict
  availability — a client that accepts any single provider's answers
  rides out outages that starve the all-must-answer policy;
* mean time-to-recovery is non-decreasing in the outage duration (the
  population cannot recover before the failure window closes);
* chaos worlds keep campaign determinism: serial and process-pool
  executions of the same chaos grid produce bit-identical records
  (telemetry snapshots included).
"""

import dataclasses

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.chaos import ChaosSpec, ServerOutage
from repro.scenarios.spec import population_spec

from benchmarks.conftest import CACHE_DIR, JOURNAL_DIR, run_once

TRIALS = 3

#: Fraction of the 3 providers the outage crashes (ceil of
#: fraction * 3): none, one, two.
FRACTIONS = (0.0, 0.3, 0.6)

#: ``None`` is the paper's strict all-must-answer combination; 1 is the
#: most permissive E6 quorum.
QUORUMS = (None, 1)

#: Outage durations for the MTTR monotonicity sweep, spanning one to
#: several availability bins (``telemetry.time_bin`` = 10 s).
DURATIONS = (10.0, 30.0, 60.0)


def _chaos_spec(num_clients: int, rounds: int, fraction: float,
                duration: float):
    """A population spec with one provider-scope outage window."""
    return dataclasses.replace(
        population_spec(num_clients=num_clients, rounds=rounds),
        chaos=ChaosSpec(events=(
            ServerOutage(scope="providers", fraction=fraction,
                         at=10.0, duration=duration),)))


BASE_SPEC = _chaos_spec(num_clients=24, rounds=5, fraction=FRACTIONS[-1],
                        duration=30.0)

GRID = ParameterGrid.over_spec(
    BASE_SPEC,
    {"chaos.events[0].fraction": FRACTIONS,
     "fleet.min_answers": QUORUMS},
    name="c1_chaos",
)

RUNNER = CampaignRunner(spec_trial, trials_per_point=TRIALS,
                        base_seed=930, cache_dir=CACHE_DIR,
                        journal_dir=JOURNAL_DIR)

SMOKE_BASE = _chaos_spec(num_clients=8, rounds=4, fraction=FRACTIONS[-1],
                         duration=30.0)

SMOKE_GRID = ParameterGrid.over_spec(
    SMOKE_BASE,
    {"chaos.events[0].fraction": (0.0, 0.6),
     "fleet.min_answers": QUORUMS},
    name="c1_chaos_smoke",
)

SMOKE_RUNNER = CampaignRunner(spec_trial, base_seed=930,
                              cache_dir=CACHE_DIR)

MTTR_GRID = ParameterGrid.over_spec(
    _chaos_spec(num_clients=12, rounds=6, fraction=0.6, duration=30.0),
    {"chaos.events[0].duration": DURATIONS},
    name="c1_mttr",
)

MTTR_RUNNER = CampaignRunner(spec_trial, trials_per_point=TRIALS,
                             base_seed=931, cache_dir=CACHE_DIR,
                             journal_dir=JOURNAL_DIR)

MTTR_SMOKE_GRID = ParameterGrid.over_spec(
    _chaos_spec(num_clients=6, rounds=5, fraction=0.6, duration=30.0),
    {"chaos.events[0].duration": (10.0, 60.0)},
    name="c1_mttr_smoke",
)

MTTR_SMOKE_RUNNER = CampaignRunner(spec_trial, base_seed=931,
                                   cache_dir=CACHE_DIR)

#: Tiny uncached grid for the serial==parallel identity check (cached
#: replays would make the comparison vacuous).
IDENTITY_GRID = ParameterGrid.over_spec(
    _chaos_spec(num_clients=6, rounds=3, fraction=0.6, duration=20.0),
    {"chaos.events[0].fraction": (0.3, 0.6)},
    name="c1_identity",
)


def bench_c1_chaos(benchmark, emit_table, smoke, results_dir):
    grid, runner = (SMOKE_GRID, SMOKE_RUNNER) if smoke else (GRID, RUNNER)
    result = run_once(benchmark, lambda: runner.run(grid))
    result.write_json(results_dir / "c1_chaos.json")

    rows = []
    for summary in result.summaries:
        quorum = summary.params["fleet.min_answers"]
        rows.append([
            f"{summary.params['chaos.events[0].fraction']:.1f}",
            "strict" if quorum is None else f"quorum {quorum}",
            f"{summary['availability'].mean:.3f}",
            f"{summary['availability_floor'].mean:.2f}",
            f"{summary['mttr'].mean:.0f} s",
            f"{summary['chaos_events'].mean:.0f}",
        ])
    emit_table(
        "c1_chaos",
        f"C1: availability under scheduled provider outages "
        f"({result.summaries[0]['availability'].count} trials/point)",
        ["outage fraction", "policy", "availability", "floor", "MTTR",
         "events"],
        rows,
        notes="A provider-scope outage crashes ceil(fraction * N) DoH "
              "providers for the window; the strict all-must-answer "
              "policy fails every resolve touching a downed provider, "
              "while a 1-answer quorum degrades gracefully.")

    fractions = sorted({s.params["chaos.events[0].fraction"]
                        for s in result.summaries})
    # Quorum availability dominates strict at every outage point: a
    # policy that needs fewer answers can only fail less often.
    for fraction in fractions:
        strict = result.metric("availability", **{
            "chaos.events[0].fraction": fraction,
            "fleet.min_answers": None}).mean
        quorum = result.metric("availability", **{
            "chaos.events[0].fraction": fraction,
            "fleet.min_answers": 1}).mean
        assert quorum >= strict - 1e-9, (
            f"fraction {fraction}: quorum availability {quorum} fell "
            f"below strict {strict}")
    # Chaos actually bites: at the largest outage the strict policy
    # loses availability relative to the chaos-free point.
    baseline = result.metric("availability", **{
        "chaos.events[0].fraction": fractions[0],
        "fleet.min_answers": None}).mean
    worst = result.metric("availability", **{
        "chaos.events[0].fraction": fractions[-1],
        "fleet.min_answers": None}).mean
    assert worst < baseline, (
        f"outage fraction {fractions[-1]} did not dent strict "
        f"availability ({worst} vs chaos-free {baseline})")

    # --- MTTR vs outage duration ------------------------------------
    mttr_grid, mttr_runner = ((MTTR_SMOKE_GRID, MTTR_SMOKE_RUNNER) if smoke
                              else (MTTR_GRID, MTTR_RUNNER))
    mttr = mttr_runner.run(mttr_grid)
    mttr.write_json(results_dir / "c1_mttr.json")
    durations = sorted({s.params["chaos.events[0].duration"]
                        for s in mttr.summaries})
    measured = [mttr.metric("mttr", **{
        "chaos.events[0].duration": duration}).mean
        for duration in durations]
    assert all(a <= b + 1e-9 for a, b in zip(measured, measured[1:])), (
        f"MTTR must be non-decreasing in outage duration, got "
        f"{dict(zip(durations, measured))}")
    emit_table(
        "c1_mttr",
        f"C1: time-to-recovery vs outage duration "
        f"({mttr.summaries[0]['mttr'].count} trials/point)",
        ["outage duration", "MTTR", "availability"],
        [[f"{duration:.0f} s",
          f"{mttr.metric('mttr', **{'chaos.events[0].duration': duration}).mean:.0f} s",
          f"{mttr.metric('availability', **{'chaos.events[0].duration': duration}).mean:.3f}"]
         for duration in durations],
        notes="Recovery is the first pop.availability bin at or above "
              "0.99 after the failure window closes, measured from the "
              "event start — the population cannot recover before the "
              "outage ends, so MTTR tracks duration.")

    # --- serial == parallel bit-identity ----------------------------
    serial = CampaignRunner(spec_trial, base_seed=932,
                            executor="serial").run(IDENTITY_GRID)
    parallel = CampaignRunner(spec_trial, base_seed=932,
                              executor="processes",
                              workers=2).run(IDENTITY_GRID)
    assert serial.records == parallel.records, (
        "chaos campaign records must be executor-invariant")
