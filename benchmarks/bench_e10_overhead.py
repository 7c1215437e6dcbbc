"""E10 — §IV/§V 'easy to integrate': the cost of distribution.

Claim reproduced: the proposal's overhead is operational, not
architectural — queries fan out in parallel, so latency is governed by
the *slowest* resolver (not the sum), while bytes on the wire grow
linearly with N. We sweep N and report virtual latency, wire bytes and
upstream queries against the single-resolver plain-DNS baseline.

Declared as two campaigns through one runner: the plain-DNS baseline
(the ``mechanism`` knob of :func:`repro.campaign.overhead_trial` over a
fixed one-provider spec) and the distributed-DoH sweep over
``provider.count``; the trial measures one acquisition per point.
"""

from repro.campaign import CampaignRunner, ParameterGrid, overhead_trial

from benchmarks.conftest import CACHE_DIR, run_once

from repro.scenarios import materialize, pool_spec, set_path

N_SWEEP = [1, 3, 5, 9, 15]

BASE_SPEC = pool_spec(pool_size=40, answers_per_query=4)

BASELINE_GRID = ParameterGrid.from_points(
    [{"mechanism": "plain-dns"}],
    fixed={"spec": set_path(BASE_SPEC, "provider.count", 1)},
    name="e10_overhead_baseline",
)

GRID = ParameterGrid.over_spec(
    BASE_SPEC, {"provider.count": N_SWEEP}, name="e10_overhead")

RUNNER = CampaignRunner(overhead_trial, base_seed=701, cache_dir=CACHE_DIR)

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
        mechanism = summary.params.get("mechanism", "distributed-doh")
        label = ("plain DNS (baseline)" if mechanism == "plain-dns"
                 else "distributed DoH")
        rows.append([
            label,
            summary.params["spec"].provider.count,
            f"{summary['latency'].mean * 1000:.1f} ms",
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
        assert doh("latency", 15) < 3 * doh("latency", 3)
        assert doh("packets", 15) > doh("packets", 3)


def bench_e10_generation_wallclock(benchmark):
    """Real (host) wall-clock of a full N=3 generation, for regression
    tracking of the simulator itself."""
    def one_generation():
        scenario = materialize(pool_spec(num_providers=3, pool_size=40), 711)
        return scenario.generate_pool_sync()

    pool = benchmark(one_generation)
    assert pool.ok
