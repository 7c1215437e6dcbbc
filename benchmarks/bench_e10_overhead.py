"""E10 — §IV/§V 'easy to integrate': the cost of distribution.

Claim reproduced: the proposal's overhead is operational, not
architectural — queries fan out in parallel, so latency is governed by
the *slowest* resolver (not the sum), while bytes on the wire grow
linearly with N. We sweep N and report virtual latency, wire bytes and
upstream queries against the single-resolver plain-DNS baseline.

Declared as two campaigns through one runner over one client spec: the
plain-DNS baseline (``client.acquire="plain-dns"`` over a one-provider
spec) and the distributed-DoH sweep over ``provider.count``;
:func:`repro.campaign.spec_trial` measures one acquisition per point.
"""

from dataclasses import replace

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.scenarios import ClientSpec, materialize, pool_spec, set_path

from benchmarks.conftest import CACHE_DIR, run_once

N_SWEEP = [1, 3, 5, 9, 15]

BASE_SPEC = replace(pool_spec(pool_size=40, answers_per_query=4),
                    client=ClientSpec())

BASELINE_GRID = ParameterGrid.over_spec(
    set_path(BASE_SPEC, "provider.count", 1),
    {"client.acquire": ("plain-dns",)},
    name="e10_overhead_baseline",
)

GRID = ParameterGrid.over_spec(
    BASE_SPEC, {"provider.count": N_SWEEP}, name="e10_overhead")

RUNNER = CampaignRunner(spec_trial, base_seed=701, cache_dir=CACHE_DIR)

SMOKE_GRID = ParameterGrid.over_spec(
    BASE_SPEC, {"provider.count": N_SWEEP[:2]}, name="e10_overhead_smoke")


def bench_e10_overhead(benchmark, emit_table, smoke, results_dir):
    grid = SMOKE_GRID if smoke else GRID
    baseline, result = run_once(
        benchmark, lambda: (RUNNER.run(BASELINE_GRID), RUNNER.run(grid)))
    baseline.write_json(results_dir / "e10_overhead_baseline.json")
    result.write_json(results_dir / "e10_overhead.json")

    rows = []
    for summary in baseline.summaries + result.summaries:
        spec = summary.params["spec"]
        label = ("plain DNS (baseline)" if spec.client.acquire == "plain-dns"
                 else "distributed DoH")
        rows.append([
            label,
            spec.provider.count,
            f"{summary['elapsed'].mean * 1000:.1f} ms",
            round(summary["bytes"].mean),
            round(summary["packets"].mean),
            round(summary["pool_size"].mean),
        ])
    emit_table(
        "e10_overhead",
        "E10 / §IV-V: overhead of distribution (virtual time, cold caches)",
        ["mechanism", "N", "latency", "wire bytes", "packets",
         "pool size"],
        rows,
        notes="Latency tracks the slowest provider (parallel fan-out + "
              "TLS handshake + recursion), not N; bytes/packets grow "
              "~linearly in N — the integration cost the paper calls "
              "acceptable.")

    if not smoke:
        def doh(metric, n):
            return result.metric(metric, **{"provider.count": n}).mean

        # Parallel fan-out: going 3 -> 15 resolvers must cost far less
        # than 5x the latency (it is bounded by the slowest, plus
        # scheduling).
        assert doh("elapsed", 15) < 3 * doh("elapsed", 3)
        assert doh("packets", 15) > doh("packets", 3)


def bench_e10_generation_wallclock(benchmark):
    """Real (host) wall-clock of a full N=3 generation, for regression
    tracking of the simulator itself."""
    def one_generation():
        scenario = materialize(pool_spec(num_providers=3, pool_size=40), 711)
        return scenario.generate_pool_sync()

    pool = benchmark(one_generation)
    assert pool.ok
