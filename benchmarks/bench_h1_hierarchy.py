"""H1 — iterative resolution: cache TTL × spray rate exposure sweeps.

The hierarchy experiment the resolution-tree axis exists for: client
populations resolve ``pool.ntp.org`` through providers whose recursors
walk a real root→TLD→authoritative referral chain with TTL caching,
while an off-path attacker sprays forged responses at provider 0.

Claims measured:

* every cache expiry re-opens a resolution window an off-path forgery
  can race — so shortening the pool TTL multiplies the attacker's
  opportunities (``windows_per_hour`` rises as ``pool.ttl`` falls);
* at a fixed TTL, hijack probability is non-decreasing in the spray
  rate, and a successful poisoning converts directly into NTP clients
  synchronising against attacker servers (``victim_fraction``);
* the §III-a corruption bound survives the deeper tree: E2's measured
  attacker share over the 2-level hierarchy stays within 0.05 of the
  flat-chain closed form c/N, and E8's per-address majority vote still
  strips a 1-of-3 minority attacker;
* campaign determinism holds for hierarchy worlds: serial and
  process-pool executions of the same grid produce bit-identical
  records (telemetry snapshots included);
* the iterative fleet stays within 2x of the committed forwarding
  fleet throughput (full runs only, measured against
  ``BENCH_netsim.json``).
"""

import gc
import json
import time
from pathlib import Path

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.scenarios import materialize, set_path
from repro.scenarios.presets import (
    hierarchy_population_spec,
    hierarchy_spec,
)

from benchmarks.conftest import CACHE_DIR, JOURNAL_DIR, run_once

FORGED = tuple(f"203.0.113.{i + 1}" for i in range(4))

TRIALS = 3

#: The exposure axes: cache lifetime of the pool records × attacker
#: spray rate (bursts/s).  TTLs span "expires every round" to "outlives
#: the whole run".
TTLS = (15, 60, 240)
RATES = (2.0, 8.0)

BASE_SPEC = hierarchy_population_spec(
    num_clients=40, rounds=3, spray_rate=RATES[0], spray_duration=60.0)

GRID = ParameterGrid.over_spec(
    BASE_SPEC,
    {"pool.ttl": TTLS, "attacks[0].rate": RATES},
    name="h1_hierarchy",
)

RUNNER = CampaignRunner(spec_trial, trials_per_point=TRIALS,
                        base_seed=900, cache_dir=CACHE_DIR,
                        journal_dir=JOURNAL_DIR)

SMOKE_BASE = hierarchy_population_spec(
    num_clients=8, rounds=2, spray_rate=RATES[0], spray_duration=40.0)

SMOKE_GRID = ParameterGrid.over_spec(
    SMOKE_BASE,
    {"pool.ttl": (15, 60), "attacks[0].rate": (8.0,)},
    name="h1_hierarchy_smoke",
)

SMOKE_RUNNER = CampaignRunner(spec_trial, base_seed=900,
                              cache_dir=CACHE_DIR)

# E2 re-run over the hierarchy: same corruption axis, single-client
# Algorithm 1 worlds whose resolvers recurse through the tree.
E2H_BASE = set_path(hierarchy_spec(pool_size=40, answers_per_query=4),
                    "provider.forged", FORGED)

# pool.size 40 is E2's shape; pool.size 4 makes every benign answer
# the whole pool, so the E8 vote check has guaranteed overlap (at 40,
# rotation hands the three providers near-disjoint windows and the
# vote is legitimately empty).
E2H_GRID = ParameterGrid.over_spec(
    E2H_BASE, {"provider.corrupted": (0, 1, 2, 3), "pool.size": (4, 40)},
    name="h1_e2_hierarchy",
)

E2H_RUNNER = CampaignRunner(spec_trial, trials_per_point=TRIALS,
                            base_seed=910, cache_dir=CACHE_DIR,
                            journal_dir=JOURNAL_DIR)

E2H_SMOKE_GRID = ParameterGrid.over_spec(
    E2H_BASE, {"provider.corrupted": (0, 1), "pool.size": (4,)},
    name="h1_e2_hierarchy_smoke",
)

E2H_SMOKE_RUNNER = CampaignRunner(spec_trial, base_seed=910,
                                  cache_dir=CACHE_DIR)

#: Tiny uncached grid for the serial==parallel identity check (cached
#: replays would make the comparison vacuous).
IDENTITY_GRID = ParameterGrid.over_spec(
    hierarchy_population_spec(num_clients=6, rounds=2, spray_rate=4.0,
                              spray_duration=30.0),
    {"pool.ttl": (15, 60)},
    name="h1_identity",
)

#: Full iterative runs may not fall below this fraction of the
#: committed forwarding-fleet throughput (BENCH_netsim.json).
PERF_FLOOR_FRACTION = 0.5

_BENCH_NETSIM = Path(__file__).parent.parent / "BENCH_netsim.json"


def _fleet_rounds_per_s(clients: int, rounds: int) -> float:
    world = materialize(
        hierarchy_population_spec(num_clients=clients, rounds=rounds),
        42)
    gc.collect()
    started = time.perf_counter()
    outcomes = world.run()
    return outcomes.rounds / (time.perf_counter() - started)


def bench_h1_hierarchy(benchmark, emit_table, smoke, results_dir):
    grid, runner = (SMOKE_GRID, SMOKE_RUNNER) if smoke else (GRID, RUNNER)
    result = run_once(benchmark, lambda: runner.run(grid))
    result.write_json(results_dir / "h1_hierarchy.json")

    rows = []
    for summary in result.summaries:
        hit_ratio = summary["cache_hits"].mean / max(
            summary["cache_hits"].mean + summary["cache_misses"].mean, 1.0)
        rows.append([
            summary.params["pool.ttl"],
            f"{summary.params['attacks[0].rate']:.0f}/s",
            f"{summary['windows_per_hour'].mean:.0f}",
            f"{summary['exposure_open_s'].mean:.2f} s",
            f"{hit_ratio:.0%}",
            f"{summary['spray_packets'].mean:.0f}",
            f"{summary['hijacked'].mean:.2f}",
            f"{summary['victim_fraction'].mean:.2f}",
        ])
    emit_table(
        "h1_hierarchy",
        f"H1: poisoning exposure over the root→TLD→authoritative chain "
        f"({result.summaries[0]['hijacked'].count} trials/point)",
        ["pool TTL", "spray", "windows/h", "open time", "cache hit",
         "packets", "P[hijack]", "victim fraction"],
        rows,
        notes="Each cache expiry re-opens an upstream resolution the "
              "off-path sprayer can race; shorter TTLs multiply "
              "windows/hour, and an accepted forgery at provider 0 "
              "turns into NTP syncs against attacker servers.")

    rates = sorted({s.params["attacks[0].rate"] for s in result.summaries})
    ttls = sorted({s.params["pool.ttl"] for s in result.summaries})
    # Shorter TTL -> strictly more exposure windows per hour, at every
    # spray rate (deterministic: windows are cache-miss counts).
    for rate in rates:
        per_ttl = {
            ttl: result.metric("windows_per_hour", **{
                "pool.ttl": ttl, "attacks[0].rate": rate}).mean
            for ttl in ttls}
        assert per_ttl[min(ttls)] > per_ttl[max(ttls)], (
            f"rate {rate}: windows/hour must rise as TTL falls, "
            f"got {per_ttl}")
    # Hijack probability is non-decreasing in the spray rate at fixed
    # TTL (lenient: means over few trials).
    for ttl in ttls:
        hijack = [result.metric("hijacked", **{
            "pool.ttl": ttl, "attacks[0].rate": rate}).mean
            for rate in rates]
        assert all(a <= b + 1e-9 for a, b in zip(hijack, hijack[1:])), (
            f"ttl {ttl}: P[hijack] must be non-decreasing in spray "
            f"rate, got {dict(zip(rates, hijack))}")
    # A hijack is never free: every point reports attacker spend.
    for summary in result.summaries:
        if summary["hijacked"].mean > 0:
            assert summary["spray_packets"].mean > 0

    # --- E2 + E8 over the hierarchy ---------------------------------
    e2_grid, e2_runner = ((E2H_SMOKE_GRID, E2H_SMOKE_RUNNER) if smoke
                          else (E2H_GRID, E2H_RUNNER))
    e2 = e2_runner.run(e2_grid)
    e2.write_json(results_dir / "h1_e2_hierarchy.json")
    e2_rows = []
    for summary in e2.summaries:
        c = summary.params["provider.corrupted"]
        pool_size = summary.params["pool.size"]
        share = summary["attacker_share"].mean
        e2_rows.append([c, pool_size, f"{share:.3f}", f"{c / 3:.3f}",
                        f"{summary['voted_attacker_share'].mean:.3f}",
                        f"{summary['voted_size'].mean:.1f}"])
        # The corruption bound is combinatorial; the deeper resolution
        # tree must not move it beyond the acceptance tolerance.
        assert abs(share - c / 3) <= 0.05, (
            f"hierarchy E2 drifted from the flat-chain bound: "
            f"share {share} vs c/N {c / 3}")
        # E8: the per-address vote never includes the minority
        # attacker; with full answer overlap (pool 4) it must also
        # retain the benign pool.
        if c == 1:
            assert summary["voted_attacker_share"].mean == 0.0
            if pool_size == 4:
                assert summary["voted_size"].mean > 0
    emit_table(
        "h1_e2_hierarchy",
        f"H1/E2: attacker share over the 2-level hierarchy, N=3 "
        f"({e2.summaries[0]['attacker_share'].count} trials/point)",
        ["corrupted", "pool", "measured share", "flat-chain c/N",
         "voted share", "voted size"],
        e2_rows,
        notes="Algorithm 1's c/N bound and the E8 majority vote are "
              "combinatorial properties of the answer sets — walking "
              "real referral chains (with caching) must not move "
              "either.")

    # --- serial == parallel bit-identity ----------------------------
    serial = CampaignRunner(spec_trial, base_seed=920,
                            executor="serial").run(IDENTITY_GRID)
    parallel = CampaignRunner(spec_trial, base_seed=920,
                              executor="processes",
                              workers=2).run(IDENTITY_GRID)
    assert serial.records == parallel.records, (
        "hierarchy campaign records must be executor-invariant")

    # --- fleet throughput floor (full runs only) --------------------
    if not smoke:
        committed = json.loads(_BENCH_NETSIM.read_text())
        reference = committed["current"]["fleet_rounds_per_s"]
        measured = _fleet_rounds_per_s(clients=1000, rounds=3)
        floor = reference * PERF_FLOOR_FRACTION
        print(f"\nh1 fleet throughput: {measured:.1f} rounds/s iterative "
              f"vs {reference} committed forwarding "
              f"(floor {floor:.1f})")
        assert measured >= floor, (
            f"iterative fleet too slow: {measured:.1f} rounds/s < "
            f"{PERF_FLOOR_FRACTION:.0%} of committed forwarding "
            f"throughput {reference}")
