"""E8 — §II: the per-address majority vote.

Claim reproduced: "Ensuring that all of the servers in a returned DNS
query are benign can be performed via a classic majority-vote on each of
the returned addresses." With a minority of resolvers poisoned,
truncate-and-combine yields a pool that is 1/N attacker-controlled,
while the majority vote yields an *all-benign* (but smaller) pool — the
availability/strength trade-off, including its interaction with answer
rotation (heavy rotation starves the vote of overlap).

Declared as a campaign grid over the pool population; the shared
:func:`repro.campaign.spec_trial` reports both the combined pool
and the per-address vote for every point. The voted pool size is the
one genuinely noisy metric here (rotation overlap varies per world), so
the full run samples it adaptively: every point gets at least
``TRIALS`` trials, and points whose 95% CI on ``voted_size`` is still
wider than ±0.5 addresses keep earning deterministically-seeded extras up
to ``MAX_TRIALS``.
"""

from repro.campaign import (
    AdaptiveSampling,
    CampaignRunner,
    ParameterGrid,
    spec_trial,
)
from repro.scenarios import pool_spec

from benchmarks.conftest import CACHE_DIR, JOURNAL_DIR, run_once

FORGED = tuple(f"203.0.113.{i + 1}" for i in range(4))

TRIALS = 5          # floor: rotation overlap varies per world
MAX_TRIALS = 12     # adaptive budget for high-variance points

GRID = ParameterGrid.over_spec(
    pool_spec(num_providers=3, answers_per_query=4),
    {"pool.size": (4, 8, 20, 60)},
    fixed={"provider.corrupted": 1, "provider.forged": FORGED},
    name="e8_majority_vote",
)

RUNNER = CampaignRunner(spec_trial, trials_per_point=TRIALS,
                        base_seed=500, cache_dir=CACHE_DIR,
                        journal_dir=JOURNAL_DIR,
                        adaptive=AdaptiveSampling(max_trials=MAX_TRIALS,
                                                  ci_width=1.0,
                                                  metric="voted_size"))

SMOKE_RUNNER = CampaignRunner(spec_trial, base_seed=500,
                              cache_dir=CACHE_DIR)


def bench_e8_majority_vote(benchmark, emit_table, smoke, results_dir):
    runner = SMOKE_RUNNER if smoke else RUNNER
    result = run_once(benchmark, lambda: runner.run(GRID))
    result.write_json(results_dir / "e8_majority_vote.json")

    rows = []
    for summary in result.summaries:
        voted = summary["voted_size"]
        rows.append([
            summary.params["pool.size"],
            round(summary["pool_size"].mean),
            f"{summary['attacker_share'].mean:.0%}",
            f"{voted.mean:.1f}",
            f"±{(voted.ci_high - voted.ci_low) / 2:.1f}",
            voted.count,
            f"{summary['voted_attacker_share'].mean:.0%}",
        ])
    counts = sorted({s["voted_size"].count for s in result.summaries})
    trials_label = (f"{counts[0]} trials/point" if len(counts) == 1 else
                    f"{counts[0]}-{counts[-1]} trials/point, CI-targeted")
    emit_table(
        "e8_majority_vote",
        f"E8 / §II: truncate-combine vs per-address majority vote "
        f"(1 of 3 resolvers substituting, {trials_label})",
        ["pool population", "combined size", "combined attacker share",
         "voted size", "95% CI", "trials", "voted attacker share"],
        rows,
        notes="The vote removes every attacker address (needs 2 of 3 "
              "votes; the lone corrupted resolver never wins) but its "
              "output shrinks as rotation reduces overlap between honest "
              "answers — why Chronos, which tolerates a minority, "
              "doesn't need it.")

    for summary in result.summaries:
        assert abs(summary["attacker_share"].mean - 1 / 3) < 1e-9
        assert summary["voted_attacker_share"].mean == 0.0  # vote soundness
    # Overlap economics: tiny population => the vote keeps everything.
    def voted_size(population):
        return result.metric("voted_size", **{"pool.size": population}).mean

    assert voted_size(4) == 4
    # Heavy rotation => fewer (possibly zero) quorum winners.
    assert voted_size(60) <= voted_size(4)
