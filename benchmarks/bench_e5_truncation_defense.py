"""E5 — §II fn.2: shortest-list truncation vs the over-population attack.

Claim reproduced: "We use the shortest list, because this prevents
attacks where the attacker seeks to overwhelm resolvers by including
more responses than usual (see attack against Chronos [1])."

Ablation: the attacker inflates its answer by increasing factors, under
the paper's SHORTEST policy and the NONE/MEDIAN alternatives. Shape to
expect: SHORTEST pins the attacker share at 1/N regardless of inflation;
NONE lets it grow toward 100%; MEDIAN holds while honest resolvers are
the median but is weaker than SHORTEST in mixed corruption.

Declared as a campaign grid over (inflation × policy), executed
end-to-end by :func:`repro.campaign.spec_trial` with the ``inflate``
compromise behaviour.
"""

from repro.analysis.poolquality import (
    pool_fraction_with_truncation,
    pool_fraction_without_truncation,
)
from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.core.policy import TruncationPolicy
from repro.scenarios import pool_spec

from benchmarks.conftest import CACHE_DIR, run_once

INFLATION = [4, 8, 16, 32, 64]
POLICIES = ["shortest", "median", "none"]
# The attacker's servers (recycled by the inflate behaviour as needed).
FORGED = tuple(f"203.0.113.{i + 1}" for i in range(8))

BASE_SPEC = pool_spec(num_providers=3, answers_per_query=4)
FIXED = {"provider.corrupted": 1, "provider.behavior": "inflate",
         "provider.forged": FORGED}

GRID = ParameterGrid.over_spec(
    BASE_SPEC,
    {"provider.inflate_to": INFLATION, "pool.truncation": POLICIES},
    fixed=FIXED,
    name="e5_truncation_defense",
)

RUNNER = CampaignRunner(spec_trial, base_seed=300, cache_dir=CACHE_DIR)

SMOKE_GRID = ParameterGrid.over_spec(
    BASE_SPEC,
    {"provider.inflate_to": (4, 32), "pool.truncation": ("shortest", "none")},
    fixed=FIXED,
    name="e5_truncation_defense_smoke",
)


def bench_e5_truncation_defense(benchmark, emit_table, smoke, results_dir):
    grid = SMOKE_GRID if smoke else GRID
    result = run_once(benchmark, lambda: RUNNER.run(grid))
    result.write_json(results_dir / "e5_truncation_defense.json")

    rows = []
    for summary in result.summaries:
        inflate_to = summary.params["provider.inflate_to"]
        policy = TruncationPolicy(summary.params["pool.truncation"])
        share = summary["attacker_share"].mean
        if policy is TruncationPolicy.SHORTEST:
            closed = pool_fraction_with_truncation(3, 1, 4, inflate_to)
        elif policy is TruncationPolicy.NONE:
            closed = pool_fraction_without_truncation(3, 1, 4, inflate_to)
        else:
            closed = float("nan")
        rows.append([
            inflate_to, policy.value,
            f"{share:.3f}",
            f"{closed:.3f}" if closed == closed else "-",
            "ATTACKER" if share > 0.5 else "bounded",
        ])
    emit_table(
        "e5_truncation_defense",
        "E5 / §II fn.2: attacker pool share vs answer inflation "
        "(1 of 3 resolvers corrupted)",
        ["inflate to", "policy", "measured share", "closed form",
         "verdict"],
        rows,
        notes="SHORTEST pins the attacker at 1/3 at any inflation; "
              "NONE lets inflation buy a majority — the [1] attack.")

    for summary in result.summaries:
        inflate_to = summary.params["provider.inflate_to"]
        policy = TruncationPolicy(summary.params["pool.truncation"])
        share = summary["attacker_share"].mean
        if policy is TruncationPolicy.SHORTEST:
            assert abs(share - 1 / 3) < 1e-9
            assert share <= 0.5
        if policy is TruncationPolicy.NONE:
            assert abs(share - pool_fraction_without_truncation(
                3, 1, 4, inflate_to)) < 1e-9
            if inflate_to >= 16:
                assert share > 0.5
