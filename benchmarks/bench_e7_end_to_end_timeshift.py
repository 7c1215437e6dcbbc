"""E7 — §I/§V: the end-to-end time-shift attack, four configurations.

Claim reproduced: "using our proposal mitigates the off-path attacks
against plain NTP as well as against Chronos enhanced NTP [1]". One
attacker (on-path at the client edge + 1 of 3 DoH providers) attacks a
client under {plain DNS, distributed DoH} x {naive SNTP, Chronos}, over
several seeds. Expected shape: plain-DNS rows shifted by the full lie
regardless of Chronos; DoH+Chronos unshifted; DoH+naive partially
shifted (the §IV point that both layers are needed).

Declared as a campaign grid over the ``e7-timeshift`` spec preset whose
axes are the client's ``client.acquire`` (plain DNS or Algorithm 1) and
``client.sync`` (naive SNTP or Chronos); :func:`repro.campaign.spec_trial`
runs each configuration in a fresh world per trial (trials_per_point =
seeds).
"""

from dataclasses import replace

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.scenarios import ClientSpec, get_spec_preset

from benchmarks.conftest import CACHE_DIR, run_once

LIE = 10.0
TRIALS = 3          # independent world seeds per configuration

#: Display names of the client configurations.
ACQUIRE_LABELS = {"plain-dns": "plain-dns", "algorithm1": "distributed-doh"}
SYNC_LABELS = {"sntp-mean": "naive-sntp", "chronos": "chronos"}

BASE_SPEC = replace(get_spec_preset("e7-timeshift")(lie_offset=LIE,
                                                    num_providers=3,
                                                    corrupted_providers=1),
                    client=ClientSpec(sync="chronos"))

GRID = ParameterGrid.over_spec(
    BASE_SPEC,
    {"client.acquire": ("plain-dns", "algorithm1"),
     "client.sync": ("sntp-mean", "chronos")},
    name="e7_end_to_end_timeshift",
)

RUNNER = CampaignRunner(spec_trial, trials_per_point=TRIALS,
                        base_seed=700, cache_dir=CACHE_DIR)

SMOKE_GRID = ParameterGrid.over_spec(
    BASE_SPEC,
    {"client.acquire": ("plain-dns", "algorithm1"),
     "client.sync": ("chronos",)},
    name="e7_end_to_end_timeshift_smoke",
)

SMOKE_RUNNER = CampaignRunner(spec_trial, base_seed=700,
                              cache_dir=CACHE_DIR)


def bench_e7_end_to_end_timeshift(benchmark, emit_table, smoke, results_dir):
    grid, runner = (SMOKE_GRID, SMOKE_RUNNER) if smoke else (GRID, RUNNER)
    result = run_once(benchmark, lambda: runner.run(grid))
    result.write_json(results_dir / "e7_end_to_end_timeshift.json")

    rows = []
    for summary in result.summaries:
        shifted = summary["shifted"]
        client = summary.params["spec"].client
        rows.append([
            f"{ACQUIRE_LABELS[client.acquire]}+{SYNC_LABELS[client.sync]}",
            f"{summary['pool_malicious_fraction'].mean:.0%}",
            f"{summary['abs_clock_error'].mean:.3f} s",
            f"{round(shifted.mean * shifted.count)}/{shifted.count}",
        ])
    emit_table(
        "e7_end_to_end_timeshift",
        f"E7 / §I,§V: clock error under a {LIE:.0f}s time-shift attack "
        f"({result.summaries[0]['shifted'].count} seeds)",
        ["configuration", "pool poisoned", "mean |clock error|",
         "runs shifted"],
        rows,
        notes="Plain DNS falls fully (even with Chronos — this is [1]); "
              "Algorithm 1 caps the poisoned fraction at 1/3; the "
              "Chronos+distributed-DoH tandem keeps correct time (§IV).")

    plain_chronos = result.summary(**{"client.acquire": "plain-dns",
                                      "client.sync": "chronos"})
    assert plain_chronos["shifted"].mean == 1.0
    assert plain_chronos["pool_malicious_fraction"].mean == 1.0
    doh_chronos = result.summary(**{"client.acquire": "algorithm1",
                                    "client.sync": "chronos"})
    assert doh_chronos["shifted"].mean == 0.0
    assert abs(doh_chronos["pool_malicious_fraction"].mean - 1 / 3) < 0.01
