"""Tests for the stock trial functions against the real simulation."""

import ast
import inspect
import json
import math
from dataclasses import replace

import pytest

import repro.campaign
from repro.analysis.model import attack_probability_exact
from repro.analysis.montecarlo import MonteCarloResult
from repro.analysis.poolquality import (
    pool_fraction_with_truncation,
    pool_fraction_without_truncation,
)
from repro.campaign import (
    CampaignRunner,
    ParameterGrid,
    attack_probability_trial,
    spec_trial,
)
from repro.campaign import trials as trials_module
from repro.chaos import ChaosSpec, ServerOutage
from repro.core.errors import ConfigurationError
from repro.scenarios import (
    AttackSpec,
    ClientSpec,
    get_spec_preset,
    hierarchy_population_spec,
    pool_spec,
    population_spec,
    set_path,
)
from repro.scenarios.spec import apply_paths

FORGED = ("203.0.113.1", "203.0.113.2", "203.0.113.3", "203.0.113.4")
#: E5's attacker servers, recycled by the inflate behaviour.
FORGED_SERVERS = tuple(f"203.0.113.{i + 1}" for i in range(8))
#: E5's inflate shape: one of three providers inflates to 20 answers.
E5_SHAPE = {"provider.corrupted": 1, "provider.behavior": "inflate",
            "provider.forged": FORGED_SERVERS, "provider.inflate_to": 20}


def _pool_trial(paths, seed, **keywords):
    """spec_trial on ``pool_spec(**keywords)`` with ``paths`` applied."""
    return spec_trial({"spec": apply_paths(pool_spec(**keywords), paths)},
                      seed)


class TestPoolAttackTrial:
    def test_honest_world_metrics(self):
        metrics = _pool_trial({}, 7, num_providers=3, pool_size=8)
        assert metrics["attacker_share"] == 0.0
        assert metrics["pool_size"] == 12.0  # 3 resolvers × 4 answers
        assert metrics["benign_fraction"] == 1.0

    def test_substitution_share_is_exact(self):
        metrics = _pool_trial({"provider.corrupted": 1,
                               "provider.forged": FORGED}, 7,
                              num_providers=3, pool_size=8)
        assert metrics["attacker_share"] == pytest.approx(1 / 3)
        assert metrics["voted_attacker_share"] == 0.0

    def test_dual_stack_per_family_shares(self):
        metrics = _pool_trial(
            {"provider.corrupted": 1,
             "provider.forged": ("2001:db8:bad::1", "2001:db8:bad::2",
                                 "2001:db8:bad::3"),
             "pool.dual_stack_policy": "per-family"}, 7,
            num_providers=3, pool_size=12, answers_per_query=3,
            dual_stack=True)
        assert metrics["v4_share"] == 0.0
        assert metrics["v6_share"] == pytest.approx(1 / 3)

    def test_typoed_parameter_rejected(self):
        """A sweep axis nothing consumes must fail loudly, not run the
        whole grid against defaults — at grid declaration and, for a
        hand-built point, inside the trial."""
        with pytest.raises(ConfigurationError, match="answers_per_qeury"):
            ParameterGrid.over_spec(pool_spec(),
                                    {"pool.answers_per_qeury": (2,)})
        with pytest.raises(ConfigurationError, match="answers_per_qeury"):
            spec_trial({"spec": pool_spec(),
                        "pool.answers_per_qeury": 2}, 7)

    @pytest.mark.parametrize("paths, seed, pool_size, share", [
        # All three inflate: the pool is entirely the attacker's, the
        # [1] over-population ceiling (3 resolvers x inflate_to=2).
        ({"provider.corrupted": 3, "provider.inflate_to": 2,
          "provider.forged": tuple(f"203.0.113.{i + 1}" for i in range(12)),
          "pool.truncation": "none", "pool.size": 8}, 7, 6, 1.0),
        # E5's shape, one of three inflating to 20: §II fn.2's
        # shortest-list truncation keeps the attacker at its 1/3 ...
        ({"pool.truncation": "shortest"}, 120, 12, 1 / 3),
        # ... without it the 20 forged answers outnumber the 2x4 honest.
        ({"pool.truncation": "none"}, 121, 28, 20 / 28),
        # The median of (4, 4, 20) is 4, so median truncation bounds it.
        ({"pool.truncation": "median"}, 122, 12, 1 / 3),
    ], ids=["all-corrupted", "shortest", "none", "median"])
    def test_inflate_share_under_truncation(self, paths, seed, pool_size,
                                            share):
        metrics = _pool_trial({**E5_SHAPE, **paths}, seed, num_providers=3)
        assert metrics["ok"] == 1.0
        assert metrics["pool_size"] == pool_size
        assert metrics["attacker_share"] == pytest.approx(share)

    def test_policy_accepts_string_values(self):
        metrics = _pool_trial({"pool.dual_stack_policy": "union",
                               "pool.truncation": "shortest"}, 7,
                              num_providers=3, pool_size=8, dual_stack=True)
        assert metrics["pool_size"] > 0

    def test_serial_and_parallel_scenario_sweeps_agree(self):
        """The acceptance-criterion path: a real end-to-end netsim sweep
        aggregated identically in serial and multiprocessing modes."""
        grid = ParameterGrid.over_spec(
            pool_spec(num_providers=3, pool_size=8),
            {"provider.corrupted": (0, 1)},
            fixed={"provider.forged": FORGED},
            name="sweep-equality")
        serial = CampaignRunner(spec_trial, base_seed=21,
                                workers=0).run(grid)
        parallel = CampaignRunner(spec_trial, base_seed=21,
                                  workers=2, executor="processes").run(grid)
        assert serial.records == parallel.records
        # Everything except the mode tag is bit-identical.
        assert (json.dumps(serial.to_json()["results"], sort_keys=True)
                == json.dumps(parallel.to_json()["results"], sort_keys=True))
        assert parallel.mode == "processes:2"


_HIERARCHY_METRICS = {"exposure_windows", "cache_hits", "hijacked",
                      "spray_packets"}
_CHAOS_METRICS = {"chaos_events", "mttr", "availability_floor",
                  "degraded_victim_fraction"}


def _with_outage(spec):
    return set_path(spec, "chaos", ChaosSpec(events=(
        ServerOutage(scope="providers", fraction=0.6, at=5.0,
                     duration=20.0),)))


class TestSpecTrialExtractors:
    """spec_trial picks its metric set from the spec."""

    def test_forwarding_population_has_no_extras(self):
        metrics, _ = spec_trial(
            {"spec": population_spec(num_clients=4, rounds=2)}, 3)
        assert "victim_fraction" in metrics
        assert not (_HIERARCHY_METRICS | _CHAOS_METRICS) & set(metrics)

    def test_iterative_population_adds_hierarchy_metrics(self):
        metrics, _ = spec_trial(
            {"spec": hierarchy_population_spec(num_clients=4, rounds=2)}, 3)
        assert _HIERARCHY_METRICS <= set(metrics)
        assert metrics["cache_misses"] > 0
        assert not _CHAOS_METRICS & set(metrics)

    def test_chaos_population_adds_slo_metrics(self):
        metrics, _ = spec_trial(
            {"spec": _with_outage(population_spec(num_clients=4,
                                                  rounds=2))}, 3)
        assert _CHAOS_METRICS <= set(metrics)
        assert metrics["chaos_events"] == 1.0
        assert not _HIERARCHY_METRICS & set(metrics)

    def test_single_client_iterative_spec_reports_pool_metrics(self):
        metrics = spec_trial({"spec": get_spec_preset("hierarchy")()}, 3)
        assert metrics["ok"] == 1.0
        assert not _HIERARCHY_METRICS & set(metrics)

    @pytest.mark.parametrize("make", [
        lambda: hierarchy_population_spec(num_clients=4, rounds=2),
        lambda: _with_outage(population_spec(num_clients=4, rounds=2)),
    ], ids=["hierarchy", "chaos"])
    def test_extras_refuse_sharded_fleets(self, make):
        spec = set_path(make(), "fleet.shards", 2)
        with pytest.raises(ValueError, match="shard the campaign"):
            spec_trial({"spec": spec}, 3)


#: What ``spec_trial`` returns on a client-less single-client spec.
_POOL_METRICS = {"ok", "degraded", "elapsed", "pool_size", "truncate_length",
                 "attacker_share", "v4_share", "v6_share", "voted_size",
                 "voted_attacker_share", "benign_fraction"}

#: What it returns on a spec with a client, for either acquire mode.
_CLIENT_METRICS = {"pool_size", "elapsed", "bytes", "packets",
                   "benign_fraction", "pool_malicious_fraction", "synced",
                   "clock_error", "abs_clock_error", "shifted"}

#: Figure 1's three providers.
_FIGURE1_RESOLVERS = ("dns.google", "cloudflare-dns.com", "dns.quad9.net")

#: What Algorithm 1 adds, over those providers.
_ALGORITHM1_METRICS = {"truncate_length"} | {
    f"{metric}[{name}]" for metric in ("answers", "latency")
    for name in _FIGURE1_RESOLVERS}


def _client_trial(seed, spec=None, **client):
    """spec_trial on ``spec`` (Figure 1 by default) with a client."""
    spec = spec if spec is not None else get_spec_preset("figure1")()
    return spec_trial({"spec": replace(spec, client=ClientSpec(**client))},
                      seed)


class TestClientTrial:
    """spec_trial runs the single client's procedure (``spec.client``)."""

    def test_figure1_pipeline_syncs_a_skewed_clock(self):
        """E1's shape: Algorithm 1, then Chronos over the pool."""
        metrics = _client_trial(100, sync="chronos", clock_offset=0.080)
        assert metrics["pool_size"] == 12.0
        assert metrics["benign_fraction"] == 1.0
        assert metrics["synced"] == 1.0
        assert abs(metrics["clock_error"]) < 0.03

    def test_acquisition_without_sync_counts_wire_cost(self):
        """E10's shape: the acquisition alone; the clock is untouched."""
        metrics = _client_trial(701, clock_offset=0.25)
        assert metrics["bytes"] > 0
        assert metrics["packets"] > 0
        assert metrics["elapsed"] > 0
        assert metrics["synced"] == 0.0
        assert metrics["clock_error"] == pytest.approx(0.25)

    @pytest.mark.parametrize("acquire,expected", [
        ("algorithm1", _CLIENT_METRICS | _ALGORITHM1_METRICS),
        ("plain-dns", _CLIENT_METRICS),
    ])
    @pytest.mark.parametrize("sync", [None, "sntp-mean", "chronos"])
    def test_key_set_per_acquire_mode(self, acquire, expected, sync):
        metrics = _client_trial(5, acquire=acquire, sync=sync)
        assert set(metrics) == expected

    def test_clientless_single_client_spec_reports_pool_metrics(self):
        metrics = spec_trial({"spec": get_spec_preset("figure1")()}, 5)
        assert set(metrics) == _POOL_METRICS

    @pytest.mark.parametrize("sync", ["sntp-mean", "chronos"])
    def test_empty_pool_leaves_the_clock_alone(self, sync):
        """Regression: with TLS blocked, Algorithm 1 yields no pool;
        the client reports unsynced instead of handing Chronos an empty
        pool (which raised ValueError)."""
        spec = replace(get_spec_preset("figure1")(),
                       attacks=(AttackSpec.of("mitm", mode="block-tls"),))
        metrics = _client_trial(1, spec, sync=sync, clock_offset=0.080)
        assert metrics["pool_size"] == 0.0
        assert metrics["synced"] == 0.0
        assert metrics["clock_error"] == pytest.approx(0.080)
        assert metrics["shifted"] == 0.0

    def test_plain_dns_pool_is_the_on_path_attackers(self):
        spec = replace(get_spec_preset("e7-timeshift")(),
                       client=ClientSpec(acquire="plain-dns",
                                         sync="chronos"))
        metrics = spec_trial({"spec": spec}, 7)
        assert metrics["pool_malicious_fraction"] == 1.0
        assert metrics["shifted"] == 1.0


class TestOnePolicy:
    """Every world kind combines by the Algorithm 1 policy its spec's
    ``pool`` declares."""

    @pytest.mark.parametrize("truncation, share", [
        ("shortest", pool_fraction_with_truncation(3, 1, 4, 20)),
        ("median", pool_fraction_with_truncation(3, 1, 4, 20)),
        ("none", pool_fraction_without_truncation(3, 1, 4, 20)),
    ])
    def test_fleet_victims_follow_the_closed_form(self, truncation, share):
        """E5's trend at population scale: each synced round picks one
        pool member, so the victim fraction estimates the attacker's
        pool share (3 binomial standard errors)."""
        spec = set_path(population_spec(num_clients=60, rounds=2,
                                        corrupted=1, behavior="inflate"),
                        "pool.truncation", truncation)
        metrics, _ = spec_trial({"spec": spec}, 7)
        syncs = round(metrics["sync_fraction"] * metrics["rounds_ok"])
        assert syncs == 120
        stderr = math.sqrt(share * (1 - share) / syncs)
        assert abs(metrics["victim_fraction"] - share) <= 3 * stderr

    def test_fleet_quorum_rides_out_an_empty_answer(self):
        spec = population_spec(num_clients=60, rounds=2, corrupted=1,
                               behavior="empty")
        strict, _ = spec_trial({"spec": spec}, 7)
        quorum, _ = spec_trial(
            {"spec": set_path(spec, "fleet.min_answers", 2)}, 7)
        assert strict["availability"] == 0.0
        assert quorum["availability"] == 1.0

    @pytest.mark.parametrize("truncation, pool_size, share", [
        ("shortest", 12, 1 / 3), ("none", 28, 20 / 28)])
    def test_client_acquires_under_the_spec_truncation(
            self, truncation, pool_size, share):
        spec = apply_paths(replace(pool_spec(), client=ClientSpec()),
                           {**E5_SHAPE, "pool.truncation": truncation})
        metrics = spec_trial({"spec": spec}, 120)
        assert metrics["pool_size"] == pool_size
        assert metrics["pool_malicious_fraction"] == pytest.approx(share)

    def test_client_quorum_drops_an_empty_answer(self):
        spec = apply_paths(replace(pool_spec(), client=ClientSpec()),
                           {"provider.corrupted": 1,
                            "provider.behavior": "empty"})
        strict = spec_trial({"spec": spec}, 120)
        quorum = spec_trial(
            {"spec": set_path(spec, "pool.min_answers", 2)}, 120)
        assert strict["pool_size"] == 0.0
        assert quorum["pool_size"] == 8.0

    def test_trials_build_no_policy_of_their_own(self):
        imported = {alias.name
                    for node in ast.walk(ast.parse(
                        inspect.getsource(trials_module)))
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert not imported & {"PoolGeneratorConfig", "TruncationPolicy",
                               "DualStackPolicy"}


class TestOneWorldTrial:
    """``spec_trial`` is the one world trial; A1's spray race is the one
    other trial that builds a world."""

    def test_only_two_trials_build_worlds(self):
        tree = ast.parse(inspect.getsource(trials_module))
        builders = {
            node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "materialize"
                    for call in ast.walk(node))}
        assert builders == {"spec_trial", "offpath_spray_trial"}

    def test_trial_functions(self):
        defined = {name for name, value in vars(trials_module).items()
                   if name.endswith("_trial") and inspect.isfunction(value)
                   and value.__module__ == trials_module.__name__}
        assert defined == {"spec_trial", "offpath_spray_trial",
                           "advantage_bits_trial"}
        exported = {name for name in repro.campaign.__all__
                    if name.endswith("_trial")}
        assert exported == defined | {"attack_probability_trial",
                                      "pool_fraction_trial"}


class TestMonteCarloTrial:
    def test_chunked_campaign_reconstructs_estimate(self):
        grid = ParameterGrid.from_points(
            [{"n": 3, "x": 2 / 3, "p_attack": 0.3}],
            fixed={"chunk": 250})
        result = CampaignRunner(attack_probability_trial, trials_per_point=8,
                                base_seed=13).run(grid)
        success = result.summaries[0]["success"]
        mc = MonteCarloResult.from_chunk_means(success.mean, success.stderr,
                                               success.count, 250)
        assert mc.trials == 2000
        assert mc.within(attack_probability_exact(3, 2 / 3, 0.3))

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            MonteCarloResult.from_chunk_means(0.5, 0.1, 0, 10)
