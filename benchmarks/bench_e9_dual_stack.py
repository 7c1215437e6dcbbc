"""E9 — §II fn.1: dual-stack honest-majority semantics.

Claim reproduced: "If dual-stack operation needs to be supported, it
depends on the application whether the property of a honest majority of
servers needs to be fulfilled for the union of A and AAAA records or
for both sets individually."

Attack: one of three resolvers poisons *only AAAA* (it owns no IPv4
servers). Under UNION semantics the poison is diluted across the
combined pool; under PER_FAMILY it concentrates in the v6 pool — the
application must pick the semantics matching how it consumes addresses.

Declared as a campaign grid whose axis is the dual-stack policy family;
the shared trial reports per-family attacker shares directly.
"""

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.scenarios import pool_spec

from benchmarks.conftest import CACHE_DIR, run_once

FORGED_V6 = tuple(f"2001:db8:bad::{i + 1:x}" for i in range(3))

TRIALS = 5          # independent world seeds per policy

GRID = ParameterGrid.over_spec(
    pool_spec(num_providers=3, pool_size=12, answers_per_query=3,
              dual_stack=True),
    {"pool.dual_stack_policy": ("union", "per-family")},
    fixed={"provider.corrupted": 1, "provider.forged": FORGED_V6},
    name="e9_dual_stack",
)

RUNNER = CampaignRunner(spec_trial, trials_per_point=TRIALS,
                        base_seed=600, cache_dir=CACHE_DIR)

SMOKE_RUNNER = CampaignRunner(spec_trial, base_seed=600,
                              cache_dir=CACHE_DIR)


def bench_e9_dual_stack(benchmark, emit_table, smoke, results_dir):
    runner = SMOKE_RUNNER if smoke else RUNNER
    result = run_once(benchmark, lambda: runner.run(GRID))
    result.write_json(results_dir / "e9_dual_stack.json")

    rows = []
    for summary in result.summaries:
        share = summary["attacker_share"]
        rows.append([
            summary.params["pool.dual_stack_policy"],
            round(summary["pool_size"].mean),
            f"{share.mean:.0%}",
            f"±{(share.ci_high - share.ci_low) / 2:.1%}",
            f"{summary['v4_share'].mean:.0%}",
            f"{summary['v6_share'].mean:.0%}",
        ])
    emit_table(
        "e9_dual_stack",
        f"E9 / §II fn.1: AAAA-only poisoning by 1 of 3 resolvers "
        f"({result.summaries[0]['attacker_share'].count} trials/point)",
        ["dual-stack policy", "pool size", "attacker share (union)",
         "95% CI", "share in v4", "share in v6"],
        rows,
        notes="UNION dilutes the single-family poison below the 1/3 "
              "resolver bound; PER_FAMILY confines it to the v6 pool at "
              "exactly 1/3 — an app using only v6 addresses must demand "
              "the per-family guarantee, as the footnote warns.")

    union = result.summary(**{"pool.dual_stack_policy": "union"})
    per_family = result.summary(**{"pool.dual_stack_policy": "per-family"})
    assert union["attacker_share"].mean <= 1 / 3 + 1e-9
    assert per_family["v4_share"].mean == 0.0
    assert abs(per_family["v6_share"].mean - 1 / 3) < 1e-9
