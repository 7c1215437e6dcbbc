"""CI-targeted adaptive sampling: budget goes where the variance is."""

import collections
import random

import pytest

from repro.campaign import AdaptiveSampling, CampaignRunner, ParameterGrid


def spread_trial(params, seed):
    """Noise scale is an axis: spread=0 points are fully deterministic,
    large-spread points need many trials to pin the mean down."""
    rng = random.Random(seed)
    return {"value": 100.0 + rng.gauss(0.0, params["spread"]),
            "constant": 1.0}


#: Seeds :func:`counted_spread_trial` ran with (serial runs only).
CALLS = []


def counted_spread_trial(params, seed):
    CALLS.append(seed)
    return spread_trial(params, seed)


def trials_per_point(result):
    counts = collections.Counter(r.point_key for r in result.records)
    return dict(counts)


GRID = dict(axes={"spread": (0.0, 50.0)}, name="adaptive-spread")


class TestAllocation:
    def test_noisy_point_gets_more_trials_than_quiet_point(self):
        runner = CampaignRunner(
            spread_trial, trials_per_point=2, base_seed=17,
            executor="serial",
            adaptive=AdaptiveSampling(max_trials=64, ci_width=5.0,
                                      metric="value"))
        result = runner.run(ParameterGrid(**GRID))
        counts = trials_per_point(result)
        assert counts["spread=0.0"] == 2          # converged at the floor
        assert counts["spread=50.0"] > counts["spread=0.0"]

    def test_max_trials_is_a_hard_cap(self):
        runner = CampaignRunner(
            spread_trial, trials_per_point=2, base_seed=17,
            executor="serial",
            adaptive=AdaptiveSampling(max_trials=8, ci_width=0.001,
                                      metric="value"))
        counts = trials_per_point(runner.run(ParameterGrid(**GRID)))
        assert counts["spread=50.0"] == 8         # unconverged but capped

    def test_floor_is_at_least_two_for_variance(self):
        """One sample can't estimate variance, so trials_per_point=1
        is lifted to 2 under adaptive sampling."""
        runner = CampaignRunner(
            spread_trial, trials_per_point=1, base_seed=17,
            executor="serial",
            adaptive=AdaptiveSampling(max_trials=4, ci_width=1e9))
        counts = trials_per_point(runner.run(ParameterGrid(**GRID)))
        assert set(counts.values()) == {2}

    def test_trial_indices_are_contiguous_per_point(self):
        runner = CampaignRunner(
            spread_trial, trials_per_point=2, base_seed=17,
            executor="serial",
            adaptive=AdaptiveSampling(max_trials=16, ci_width=10.0,
                                      metric="value"))
        result = runner.run(ParameterGrid(**GRID))
        by_point = collections.defaultdict(list)
        for record in result.records:
            by_point[record.point_key].append(record.trial)
        for trials in by_point.values():
            assert trials == list(range(len(trials)))

    def test_unwatched_metrics_do_not_block_convergence(self):
        """metric='constant' has zero variance everywhere, so every
        point converges at the floor regardless of 'value' noise."""
        runner = CampaignRunner(
            spread_trial, trials_per_point=3, base_seed=17,
            executor="serial",
            adaptive=AdaptiveSampling(max_trials=64, ci_width=0.5,
                                      metric="constant"))
        counts = trials_per_point(runner.run(ParameterGrid(**GRID)))
        assert set(counts.values()) == {3}

    def test_absent_metric_counts_as_converged(self):
        runner = CampaignRunner(
            spread_trial, trials_per_point=2, base_seed=17,
            executor="serial",
            adaptive=AdaptiveSampling(max_trials=64, ci_width=0.001,
                                      metric="no_such_metric"))
        counts = trials_per_point(runner.run(ParameterGrid(**GRID)))
        assert set(counts.values()) == {2}


class TestDeterminism:
    ADAPTIVE = AdaptiveSampling(max_trials=32, ci_width=8.0, metric="value")

    def _run(self, **kwargs):
        defaults = dict(trials_per_point=2, base_seed=23,
                        adaptive=self.ADAPTIVE)
        defaults.update(kwargs)
        return CampaignRunner(spread_trial, **defaults).run(
            ParameterGrid(**GRID))

    def test_reruns_are_bit_identical(self):
        first, second = self._run(executor="serial"), \
            self._run(executor="serial")
        assert first.records == second.records
        assert first.to_json()["results"] == second.to_json()["results"]

    @pytest.mark.parametrize("executor", ["processes"])
    def test_parallel_adaptive_equals_serial(self, executor):
        serial = self._run(executor="serial")
        parallel = self._run(executor=executor, workers=2)
        assert parallel.records == serial.records
        assert parallel.to_json()["results"] == serial.to_json()["results"]

    def test_adaptive_campaign_round_trips_the_cache(self, tmp_path):
        first = self._run(executor="serial", cache_dir=tmp_path)
        assert first.mode == "serial"
        again = self._run(executor="serial", cache_dir=tmp_path)
        assert again.mode == "cached"
        assert again.records == first.records
        assert again.to_json()["results"] == first.to_json()["results"]

    def test_sealed_adaptive_log_replays_without_trial_calls(self, tmp_path):
        """A cache hit is a resume with nothing missing: the sealed log
        feeds the base pass *and* every adaptive round, so not one
        trial function call happens."""
        CALLS.clear()
        first = CampaignRunner(counted_spread_trial, trials_per_point=2,
                               base_seed=23, adaptive=self.ADAPTIVE,
                               executor="serial", cache_dir=tmp_path).run(
            ParameterGrid(**GRID))
        assert len(CALLS) == len(first.records) > 2 * 2   # rounds ran
        CALLS.clear()
        again = CampaignRunner(counted_spread_trial, trials_per_point=2,
                               base_seed=23, adaptive=self.ADAPTIVE,
                               executor="serial", cache_dir=tmp_path).run(
            ParameterGrid(**GRID))
        assert CALLS == []
        assert again.mode == "cached"
        assert again.records == first.records

    def test_adaptive_config_is_part_of_the_fingerprint(self, tmp_path):
        self._run(executor="serial", cache_dir=tmp_path)
        widened = AdaptiveSampling(max_trials=32, ci_width=16.0,
                                   metric="value")
        result = self._run(executor="serial", cache_dir=tmp_path,
                           adaptive=widened)
        assert result.mode == "serial"     # no stale cache hit

    def test_adaptive_campaign_journals_and_resumes(self, tmp_path):
        reference = self._run(executor="serial")
        result = self._run(executor="serial", journal_dir=tmp_path)
        assert result.records == reference.records
        assert not list(tmp_path.glob("*.jsonl"))


class TestValidation:
    def test_max_trials_below_two_rejected(self):
        with pytest.raises(ValueError, match="max_trials"):
            AdaptiveSampling(max_trials=1, ci_width=1.0)

    def test_non_positive_ci_width_rejected(self):
        with pytest.raises(ValueError, match="ci_width"):
            AdaptiveSampling(max_trials=4, ci_width=0.0)

    def test_max_trials_below_floor_rejected(self):
        with pytest.raises(ValueError, match="max_trials"):
            CampaignRunner(spread_trial, trials_per_point=10,
                           adaptive=AdaptiveSampling(max_trials=4,
                                                     ci_width=1.0))

    def test_wrong_adaptive_type_rejected(self):
        with pytest.raises(TypeError, match="AdaptiveSampling"):
            CampaignRunner(spread_trial, adaptive={"max_trials": 4})

    def test_next_batch_grows_by_half(self):
        policy = AdaptiveSampling(max_trials=100, ci_width=1.0)
        assert policy.next_batch(2) == 1
        assert policy.next_batch(10) == 5
        assert policy.next_batch(99) == 1      # clipped to remaining
        assert policy.next_batch(100) == 0
