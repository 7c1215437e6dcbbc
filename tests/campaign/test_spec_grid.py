"""Tests for grid-over-spec sweeps: ``ParameterGrid.over_spec``,
``spec_trial``, and the telemetry/cache plumbing they ride on."""

import pickle

import pytest

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.campaign.grid import point_key
from repro.scenarios.spec import (
    ScenarioSpec,
    get_path,
    pool_spec,
    population_spec,
    set_path,
)


class TestOverSpecExpansion:
    def test_odometer_order_with_dotted_axes(self):
        grid = ParameterGrid.over_spec(
            population_spec(),
            {"fleet.size": (10, 20), "provider.corrupted": (0, 1)})
        keys = [p.key for p in grid.points()]
        assert keys == [
            "fleet.size=10,provider.corrupted=0",
            "fleet.size=10,provider.corrupted=1",
            "fleet.size=20,provider.corrupted=0",
            "fleet.size=20,provider.corrupted=1",
        ]

    def test_expansion_is_deterministic(self):
        def build():
            return ParameterGrid.over_spec(
                population_spec(),
                {"fleet.size": (10, 20), "network.fault.loss_rate":
                 (0.0, 0.25)},
                fixed={"fleet.rounds": 2})
        first = [(p.key, p.params["spec"]) for p in build().points()]
        second = [(p.key, p.params["spec"]) for p in build().points()]
        assert first == second

    def test_points_carry_applied_specs(self):
        base = population_spec()
        grid = ParameterGrid.over_spec(
            base, {"provider.corrupted": (0, 2)},
            fixed={"fleet.size": 77})
        for point in grid.points():
            spec = point.params["spec"]
            assert isinstance(spec, ScenarioSpec)
            assert spec.fleet.size == 77
            assert spec.provider.corrupted == point.params[
                "provider.corrupted"]
        # The base spec is never mutated by expansion.
        assert base.fleet.size == 50 and base.provider.corrupted == 0

    def test_fixed_paths_do_not_enter_point_keys(self):
        grid = ParameterGrid.over_spec(
            population_spec(), {"provider.corrupted": (1,)},
            fixed={"fleet.size": 5})
        assert grid.points()[0].key == "provider.corrupted=1"

    def test_unknown_path_rejected_at_declaration(self):
        with pytest.raises(Exception, match="no"):
            ParameterGrid.over_spec(pool_spec(), {"fleet.size": (1,)})

    def test_spec_key_is_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            ParameterGrid.over_spec(pool_spec(), {"spec": (1,)})

    def test_predicates_still_apply(self):
        grid = ParameterGrid.over_spec(
            population_spec(),
            {"provider.count": (3, 5), "provider.corrupted": (0, 4)},
        ).where(lambda p: p["provider.corrupted"] <= p["provider.count"])
        assert len(grid.points()) == 3

    def test_points_pickle_for_worker_sharding(self):
        grid = ParameterGrid.over_spec(
            population_spec(), {"fleet.size": (10,)})
        points = grid.points()
        assert pickle.loads(pickle.dumps(points))[0].params["spec"] == (
            points[0].params["spec"])


class TestSpecTrial:
    def test_requires_spec_param(self):
        with pytest.raises(ValueError, match="spec"):
            spec_trial({"fleet.size": 10}, seed=1)

    def test_rejects_param_that_disagrees_with_spec(self):
        spec = population_spec(num_clients=10)
        with pytest.raises(ValueError, match="fleet.size"):
            spec_trial({"spec": spec, "fleet.size": 99}, seed=1)

    def test_rejects_unknown_dotted_path(self):
        with pytest.raises(Exception, match="no"):
            spec_trial({"spec": pool_spec(), "pool.sizes": 3}, seed=1)

    def test_accepts_spec_as_dict(self):
        spec = pool_spec(num_providers=3)
        metrics = spec_trial({"spec": spec.to_dict()}, seed=4)
        assert metrics["ok"] == 1.0
        assert metrics["pool_size"] > 0

    def test_single_client_spec_honours_combine_policy(self):
        empty = set_path(pool_spec(), "provider.behavior", "empty")
        empty = set_path(empty, "provider.corrupted", 1)
        strict = spec_trial({"spec": empty}, seed=400)
        quorum = spec_trial({"spec": set_path(empty, "pool.min_answers", 2)},
                            seed=400)
        assert strict["ok"] == 0.0          # fn.2's documented DoS
        assert quorum["ok"] == 1.0          # the availability extension
        assert quorum["degraded"] == 1.0

    def test_population_spec_returns_metrics_and_telemetry(self):
        spec = population_spec(num_clients=8, rounds=2)
        metrics, telemetry = spec_trial({"spec": spec}, seed=7)
        assert metrics["rounds"] == 16.0
        assert '"pop.rounds"' in telemetry

    def test_attacker_share_scores_synthesised_forged_addresses(self):
        # corrupted>0 with no explicit forged: the compiler synthesises
        # the 203.0.113.0/24 block, and the metrics must score against
        # exactly that set — not the spec's empty tuple.
        spec = set_path(pool_spec(), "provider.corrupted", 1)
        metrics = spec_trial({"spec": spec}, seed=4)
        assert metrics["ok"] == 1.0
        assert metrics["attacker_share"] == pytest.approx(1 / 3, abs=0.01)
        assert metrics["benign_fraction"] == pytest.approx(2 / 3, abs=0.01)

    def test_compromise_attack_installer_matches_provider_corruption(self):
        # Provider corruption installs EMPTY semantics: fn.2's
        # documented DoS.
        via_provider = set_path(
            set_path(pool_spec(), "provider.corrupted", 1),
            "provider.behavior", "empty")
        assert spec_trial({"spec": via_provider}, seed=400)["ok"] == 0.0


class TestRunnerIntegration:
    GRID_AXES = {"provider.corrupted": (0, 1)}

    def _runner(self, tmp_path, **kwargs):
        return CampaignRunner(spec_trial, base_seed=11, workers=0,
                              cache_dir=tmp_path / "cache",
                              include_telemetry=True, **kwargs)

    def _grid(self):
        return ParameterGrid.over_spec(
            population_spec(num_clients=6, rounds=2), self.GRID_AXES,
            name="spec-grid-test")

    def test_results_json_is_self_describing(self, tmp_path):
        result = self._runner(tmp_path).run(self._grid())
        payload = result.to_json()
        entry = payload["results"][0]
        assert entry["params"]["spec"]["fleet"]["size"] == 6
        assert "telemetry" in entry
        snapshot = entry["telemetry"]["0"]
        assert snapshot["counter"]["pop.rounds"] == 12

    def test_cache_round_trip_preserves_telemetry(self, tmp_path):
        runner = self._runner(tmp_path)
        first = runner.run(self._grid())
        again = runner.run(self._grid())
        assert again.mode == "cached"
        assert ([r.metrics for r in again.records]
                == [r.metrics for r in first.records])
        assert ([r.telemetry for r in again.records]
                == [r.telemetry for r in first.records])
        assert again.summaries[0].telemetry == first.summaries[0].telemetry

    def test_telemetry_excluded_by_default(self, tmp_path):
        runner = CampaignRunner(spec_trial, base_seed=11, workers=0)
        result = runner.run(self._grid())
        assert result.summaries[0].telemetry == {}
        assert "telemetry" not in result.to_json()["results"][0]

    def test_metric_lookup_by_dotted_subset(self, tmp_path):
        result = self._runner(tmp_path).run(self._grid())
        clean = result.metric("victim_fraction",
                              **{"provider.corrupted": 0}).mean
        assert clean == 0.0


def test_point_key_renders_dotted_names_stably():
    assert point_key({"fleet.size": 10, "network.fault.loss_rate": 0.5}) == (
        "fleet.size=10,network.fault.loss_rate=0.5")


def test_get_path_agrees_with_grid_application():
    grid = ParameterGrid.over_spec(
        population_spec(), {"network.fault.loss_rate": (0.125,)})
    point = grid.points()[0]
    assert get_path(point.params["spec"],
                    "network.fault.loss_rate") == 0.125
