"""R1 — pool generation robustness under the full fault-injection axes.

E6 sweeps only the ``loss_rate`` axis; this benchmark exercises the
remaining :class:`repro.netsim.link.FaultModel` knobs —
``network.fault.jitter_s`` (bounded extra delay),
``network.fault.reorder_window`` (hold-back displacement) and
``network.fault.duplicate_rate`` (a second delivered copy) — on the
client access link of the ``degraded-network`` preset spec.

Claim measured: Algorithm 1 over the unified transport is *correct*
under every non-lossy fault the model can impose. Jitter and
reordering only stretch latency (per-attempt timeouts absorb them);
duplicated replies are suppressed by the transport's per-attempt socket
discipline, never double-delivered. Faults therefore cost elapsed time,
not availability and not pool quality.
"""

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.scenarios import get_spec_preset

from benchmarks.conftest import CACHE_DIR, run_once

JITTER = "network.fault.jitter_s"
REORDER = "network.fault.reorder_window"
DUPLICATE = "network.fault.duplicate_rate"

AXES = {JITTER: (0.0, 0.04), REORDER: (0.0, 0.04), DUPLICATE: (0.0, 0.25)}

GRID = ParameterGrid.over_spec(
    get_spec_preset("degraded-network")(), AXES, name="r1_robustness")
RUNNER = CampaignRunner(spec_trial, trials_per_point=3,
                        base_seed=1100, cache_dir=CACHE_DIR)

# The two corners: fault-free and every fault at once.
SMOKE_GRID = ParameterGrid.over_spec(
    get_spec_preset("degraded-network")(), AXES,
    name="r1_robustness_smoke").where(
    lambda p: (p[JITTER] > 0) == (p[REORDER] > 0) == (p[DUPLICATE] > 0))
SMOKE_RUNNER = CampaignRunner(spec_trial, base_seed=1100,
                              cache_dir=CACHE_DIR)


def bench_r1_robustness(benchmark, emit_table, smoke, results_dir):
    grid, runner = (SMOKE_GRID, SMOKE_RUNNER) if smoke else (GRID, RUNNER)
    result = run_once(benchmark, lambda: runner.run(grid))
    result.write_json(results_dir / "r1_robustness.json")

    rows = []
    for summary in result.summaries:
        elapsed = summary["elapsed"]
        rows.append([
            f"{summary.params[JITTER] * 1000:.0f} ms",
            f"{summary.params[REORDER] * 1000:.0f} ms",
            f"{summary.params[DUPLICATE]:.0%}",
            "yes" if summary["ok"].mean == 1.0 else
            f"{summary['ok'].mean:.0%}",
            round(summary["pool_size"].mean),
            f"{summary['benign_fraction'].mean:.0%}",
            f"{elapsed.mean:.3f} ± {elapsed.mean - elapsed.ci_low:.3f} s",
        ])
    emit_table(
        "r1_robustness",
        "R1: pool generation under jitter / reordering / duplication "
        "faults on the access link",
        ["extra jitter", "reorder window", "duplicate rate",
         "pool produced", "pool size", "benign fraction", "elapsed (95% CI)"],
        rows,
        notes="Non-lossy faults never cost correctness: every grid "
              "point produces a full, fully benign pool. Duplicated "
              "replies are absorbed by the transport's suppression; "
              "jitter and reordering only show up as elapsed time.")

    # Correctness is fault-invariant on these axes.
    for summary in result.summaries:
        assert summary["ok"].mean == 1.0, (
            f"pool generation failed under faults {summary.params}")
        assert summary["benign_fraction"].mean == 1.0
        assert summary["voted_attacker_share"].mean == 0.0

    # Jitter costs latency: the jittered corner is no faster than the
    # fault-free baseline.
    def elapsed(jitter, reorder, duplicate):
        return result.metric("elapsed", **{JITTER: jitter, REORDER: reorder,
                                           DUPLICATE: duplicate}).mean

    clean = elapsed(0.0, 0.0, 0.0)
    worst = (elapsed(0.04, 0.04, 0.25) if smoke
             else elapsed(0.04, 0.0, 0.0))
    assert worst >= clean, (
        f"faulted run ({worst:.4f}s) beat the clean baseline "
        f"({clean:.4f}s)")
