"""E1 — Figure 1, end to end.

Paper anchor: Fig. 1 (system overview). The claim reproduced: the whole
pipeline works — a client queries pool.ntp.org through three distributed
DoH resolvers (steps 1-2), each resolver recurses to the c/d/e.ntpns.org
nameservers (steps 3-4), the answers are combined (step 5) and the
resulting pool drives a successful Chronos synchronisation.

Declared as a (single-point) campaign grid over the ``figure1`` preset
spec — Figure 1's three providers — whose client acquires its pool with
Algorithm 1 and disciplines an 80 ms-skewed clock with Chronos;
:func:`repro.campaign.spec_trial` reports the per-resolver
answer/latency breakdown the Figure 1 table shows.
"""

from dataclasses import replace

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.scenarios import ClientSpec, get_spec_preset

from benchmarks.conftest import CACHE_DIR, run_once

BASE_SPEC = replace(get_spec_preset("figure1")(),
                    client=ClientSpec(sync="chronos", clock_offset=0.080))

GRID = ParameterGrid.over_spec(
    BASE_SPEC,
    {"provider.count": (3,)},
    name="e1_system_overview",
)

RUNNER = CampaignRunner(spec_trial, base_seed=100, cache_dir=CACHE_DIR)


def bench_e1_system_overview(benchmark, emit_table, smoke, results_dir):
    result = run_once(benchmark, lambda: RUNNER.run(GRID))
    result.write_json(results_dir / "e1_system_overview.json")

    summary = result.summaries[0]
    resolver_names = [key[len("answers["):-1] for key in summary.metrics
                      if key.startswith("answers[")]
    rows = []
    for name in resolver_names:
        rows.append([
            name,
            round(summary[f"answers[{name}]"].mean),
            round(summary["truncate_length"].mean),
            f"{summary[f'latency[{name}]'].mean * 1000:.1f} ms",
        ])
    rows.append(["(combined pool)", round(summary["pool_size"].mean), "-",
                 f"{summary['elapsed'].mean * 1000:.1f} ms"])
    emit_table(
        "e1_system_overview",
        "E1 / Fig.1: distributed DoH pool generation feeding Chronos",
        ["resolver", "answers", "K (truncated)", "latency"],
        rows,
        notes=(f"benign fraction: {summary['benign_fraction'].mean:.0%}; "
               f"Chronos: "
               f"{'ok' if summary['synced'].mean == 1.0 else 'failed'}, "
               f"clock error after sync "
               f"{summary['clock_error'].mean * 1000:+.1f} ms (was "
               f"{BASE_SPEC.client.clock_offset * 1000:+.1f} ms)"))

    assert summary["pool_size"].mean > 0           # pool.ok
    assert summary["synced"].mean == 1.0           # sync.ok
    assert abs(summary["clock_error"].mean) < 0.030
