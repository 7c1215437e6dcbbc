"""Tests for campaign execution: sharding, seeding, determinism."""

import json
import random

import pytest

from repro.campaign import CampaignRunner, ParameterGrid, trial_seed
from repro.util.rng import derive_seed


# Module-level (picklable) trial functions for the multiprocessing path.

def noisy_trial(params, seed):
    rng = random.Random(seed)
    return {"value": params["offset"] + rng.random(),
            "noise": rng.gauss(0.0, 1.0)}


def scalar_trial(params, seed):
    return float(seed % 97)


def seed_echo_trial(params, seed):
    return {"seed": float(seed % 2 ** 31)}


def failing_trial(params, seed):
    raise RuntimeError("boom")


GRID_AXES = {"offset": (0.0, 10.0, 100.0)}


class TestSeedDerivation:
    def test_matches_util_rng(self):
        assert trial_seed(42, "n=3", 7) == derive_seed(
            42, "campaign", "n=3", "7")

    def test_unique_across_points_and_trials(self):
        grid = ParameterGrid({"offset": (0.0, 1.0, 2.0)})
        runner = CampaignRunner(seed_echo_trial, trials_per_point=5,
                                base_seed=1)
        seeds = [spec[5] for spec in runner.specs(grid)]
        assert len(set(seeds)) == len(seeds) == 15

    def test_seed_independent_of_sibling_axis_values(self):
        """Extending an axis must not reseed the existing points."""
        runner = CampaignRunner(seed_echo_trial, base_seed=9)
        small = {spec[2]: spec[5]
                 for spec in runner.specs(ParameterGrid({"offset": (1, 2)}))}
        large = {spec[2]: spec[5]
                 for spec in runner.specs(ParameterGrid({"offset": (1, 2, 3)}))}
        for key, seed in small.items():
            assert large[key] == seed

    def test_base_seed_changes_all_trials(self):
        grid = ParameterGrid(GRID_AXES)
        run_a = CampaignRunner(seed_echo_trial, base_seed=1).run(grid)
        run_b = CampaignRunner(seed_echo_trial, base_seed=2).run(grid)
        seeds_a = [r.seed for r in run_a.records]
        seeds_b = [r.seed for r in run_b.records]
        assert not set(seeds_a) & set(seeds_b)


class TestSerialParallelEquality:
    def test_records_and_aggregates_identical(self):
        grid = ParameterGrid(GRID_AXES, name="equality")
        serial = CampaignRunner(noisy_trial, trials_per_point=6,
                                base_seed=77, workers=0).run(grid)
        parallel = CampaignRunner(noisy_trial, trials_per_point=6,
                                  base_seed=77, workers=2,
                                  executor="processes").run(grid)
        assert serial.mode == "serial"
        assert parallel.mode == "processes:2"  # really crossed processes
        assert serial.records == parallel.records
        # Bit-identical aggregates, not merely approximately equal.
        assert (json.dumps(serial.to_json()["results"], sort_keys=True)
                == json.dumps(parallel.to_json()["results"], sort_keys=True))

    def test_chunked_parallel_equals_serial(self):
        grid = ParameterGrid(GRID_AXES)
        serial = CampaignRunner(scalar_trial, trials_per_point=8,
                                base_seed=5, workers=1).run(grid)
        chunked = CampaignRunner(scalar_trial, trials_per_point=8,
                                 base_seed=5, workers=3,
                                 executor="processes").run(grid)
        assert chunked.mode == "processes:3"
        assert serial.records == chunked.records

    def test_auto_workers_run_tiny_campaigns_serially(self):
        """workers=None must not pay pool startup for a 2-spec sweep."""
        grid = ParameterGrid({"offset": (0.0, 1.0)})
        result = CampaignRunner(scalar_trial, workers=None).run(grid)
        assert result.mode == "serial"

    def test_trial_errors_are_contained_in_parallel_mode(self):
        """A failing trial is contained as an error record — in the
        chosen parallel mode, not via a silent serial re-run — exactly
        as it would be serially."""
        grid = ParameterGrid({"offset": (0.0,) * 1})
        runner = CampaignRunner(failing_trial, trials_per_point=4, workers=2,
                                executor="processes")
        result = runner.run(grid)
        assert result.mode == "processes:2"
        assert result.failed == 4
        assert all(record.error is not None and "boom" in record.error
                   for record in result.records)

    def test_unpicklable_trial_falls_back_to_serial(self):
        grid = ParameterGrid({"offset": (0.0,)})
        captured = []
        runner = CampaignRunner(
            lambda params, seed: captured.append(seed) or 1.0,
            trials_per_point=3, workers=2, executor="processes")
        result = runner.run(grid)
        assert result.mode == "serial"
        assert len(captured) == 3


class TestDeterminism:
    def test_bit_identical_reruns_from_same_seed(self):
        """Regression: the same grid + seed must reproduce every record
        and every aggregate byte, run after run."""
        grid = ParameterGrid(GRID_AXES, name="determinism")
        make = lambda: CampaignRunner(noisy_trial, trials_per_point=4,
                                      base_seed=123).run(grid)
        first, second = make(), make()
        assert first.records == second.records
        assert (json.dumps(first.to_json(), sort_keys=True)
                == json.dumps(second.to_json(), sort_keys=True))

    def test_trial_metrics_are_pure_functions_of_seed(self):
        grid = ParameterGrid({"offset": (0.0,)})
        result = CampaignRunner(noisy_trial, trials_per_point=3,
                                base_seed=55).run(grid)
        for record in result.records:
            assert record.metrics == noisy_trial(record.params, record.seed)


class TestRunnerBehaviour:
    def test_scalar_return_becomes_value_metric(self):
        grid = ParameterGrid({"offset": (0.0,)})
        result = CampaignRunner(scalar_trial).run(grid)
        assert set(result.records[0].metrics) == {"value"}

    def test_trials_per_point_recorded(self):
        grid = ParameterGrid(GRID_AXES)
        result = CampaignRunner(scalar_trial, trials_per_point=4).run(grid)
        assert all(summary.trials == 4 for summary in result.summaries)
        assert len(result.records) == 12

    def test_grid_name_wins_over_runner_name(self):
        named = ParameterGrid({"offset": (0.0,)}, name="grid-name")
        result = CampaignRunner(scalar_trial, name="runner-name").run(named)
        assert result.name == "grid-name"
        anonymous = ParameterGrid({"offset": (0.0,)})
        result = CampaignRunner(scalar_trial, name="runner-name").run(anonymous)
        assert result.name == "runner-name"

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(scalar_trial, trials_per_point=0)
        with pytest.raises(ValueError):
            CampaignRunner(scalar_trial, workers=-1)
        with pytest.raises(TypeError):
            CampaignRunner(scalar_trial, chunk_size=2)   # knob removed

    @pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.1])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_confidence_validated_before_anything_runs(
            self, tmp_path, confidence, adaptive):
        """Regression: an out-of-range confidence used to surface only
        from the Aggregator, after every trial had run and the result
        had been persisted (or, adaptively, mid-sweep)."""
        from repro.campaign import AdaptiveSampling

        calls = []

        def counting_trial(params, seed):
            calls.append(seed)
            return 0.0

        with pytest.raises(ValueError, match="confidence"):
            runner = CampaignRunner(
                counting_trial, trials_per_point=2, confidence=confidence,
                adaptive=(AdaptiveSampling(max_trials=4, ci_width=0.1)
                          if adaptive else None),
                cache_dir=tmp_path / "cache", journal_dir=tmp_path / "log")
            runner.run(ParameterGrid(GRID_AXES, name="conf"))
        assert calls == []
        assert not list(tmp_path.rglob("*"))
