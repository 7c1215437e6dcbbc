"""Campaign progress reporting and the campaign store as a cache:
a sealed record log in ``cache_dir`` replays without executing."""

import json
import random

import pytest

from repro.campaign import CampaignProgress, CampaignRunner, ParameterGrid


def noisy_trial(params, seed):
    rng = random.Random(seed)
    return {"value": params["offset"] + rng.random()}


def other_trial(params, seed):
    return {"value": 0.0}


def unsorted_metrics_trial(params, seed):
    return {"b": params["offset"], "a": float(seed % 7)}


GRID_AXES = {"offset": (0.0, 10.0, 100.0)}


class TestProgress:
    def test_one_tick_per_trial_with_eta(self):
        ticks = []
        runner = CampaignRunner(noisy_trial, trials_per_point=2, workers=0,
                                on_progress=ticks.append)
        runner.run(ParameterGrid(GRID_AXES, name="progress-test"))
        assert [tick.completed for tick in ticks] == [1, 2, 3, 4, 5, 6]
        assert all(tick.total == 6 for tick in ticks)
        assert all(not tick.cached for tick in ticks)
        assert ticks[-1].fraction == 1.0
        assert ticks[-1].eta_s == pytest.approx(0.0, abs=1e-6)
        assert all(tick.eta_s is not None for tick in ticks)

    def test_parallel_path_reports_progress_too(self):
        ticks = []
        runner = CampaignRunner(noisy_trial, trials_per_point=2, workers=2,
                                executor="processes")
        result = runner.run(ParameterGrid(GRID_AXES, name="progress-mp"),
                            on_progress=ticks.append)
        if result.mode.startswith("processes"):
            assert [tick.completed for tick in ticks] == [1, 2, 3, 4, 5, 6]

    def test_progress_dataclass(self):
        tick = CampaignProgress(name="x", completed=0, total=0,
                                elapsed_s=0.0, eta_s=None)
        assert tick.fraction == 1.0


class TestResultCache:
    def _grid(self, name="cache-test"):
        return ParameterGrid(GRID_AXES, name=name)

    def test_rerun_is_served_from_cache(self, tmp_path):
        runner = CampaignRunner(noisy_trial, trials_per_point=3, workers=0,
                                base_seed=9, cache_dir=tmp_path)
        first = runner.run(self._grid())
        assert first.mode == "serial"
        (sealed,) = tmp_path.glob("*.jsonl")
        assert sealed.read_text().splitlines()[-1] == '{"complete": true}'

        again = runner.run(self._grid())
        assert again.mode == "cached"
        assert again.records == first.records
        assert again.summaries == first.summaries

    def test_cached_run_lists_metrics_in_the_live_order(self, tmp_path):
        """The store replays metrics key-sorted; the summaries must not
        depend on whether a run was live or cached."""
        runner = CampaignRunner(unsorted_metrics_trial, workers=0,
                                cache_dir=tmp_path)
        live = runner.run(self._grid("metric-order"))
        cached = runner.run(self._grid("metric-order"))
        assert cached.mode == "cached"
        for first, again in zip(live.summaries, cached.summaries):
            assert list(first.metrics) == list(again.metrics) == ["a", "b"]

    def test_cache_hit_reports_cached_progress(self, tmp_path):
        runner = CampaignRunner(noisy_trial, workers=0, cache_dir=tmp_path)
        runner.run(self._grid())
        ticks = []
        runner.run(self._grid(), on_progress=ticks.append)
        assert len(ticks) == 1
        assert ticks[0].cached
        assert ticks[0].completed == ticks[0].total == 3

    def test_cache_hit_is_logged(self, tmp_path, caplog):
        runner = CampaignRunner(noisy_trial, workers=0, cache_dir=tmp_path)
        runner.run(self._grid())
        with caplog.at_level("INFO", logger="repro.campaign"):
            runner.run(self._grid())
        assert any("cache hit" in record.message for record in caplog.records)

    def test_base_seed_change_invalidates(self, tmp_path):
        CampaignRunner(noisy_trial, workers=0, base_seed=1,
                       cache_dir=tmp_path).run(self._grid())
        result = CampaignRunner(noisy_trial, workers=0, base_seed=2,
                                cache_dir=tmp_path).run(self._grid())
        assert result.mode == "serial"

    def test_grid_change_invalidates(self, tmp_path):
        runner = CampaignRunner(noisy_trial, workers=0, cache_dir=tmp_path)
        runner.run(self._grid())
        grown = ParameterGrid({"offset": (0.0, 10.0, 100.0, 1000.0)},
                              name="cache-test")
        assert runner.run(grown).mode == "serial"

    def test_source_tree_change_invalidates(self, tmp_path, monkeypatch):
        """The fingerprint keys on the whole repro source tree, so an
        edit anywhere in the stack forces recomputation."""
        import repro.campaign.runner as runner_module
        runner = CampaignRunner(noisy_trial, workers=0, cache_dir=tmp_path)
        runner.run(self._grid())
        monkeypatch.setattr(runner_module, "_source_fingerprint_cache",
                            "simulated-code-edit")
        assert runner.run(self._grid()).mode == "serial"

    def test_trial_fn_change_invalidates(self, tmp_path):
        CampaignRunner(noisy_trial, workers=0,
                       cache_dir=tmp_path).run(self._grid())
        result = CampaignRunner(other_trial, workers=0,
                                cache_dir=tmp_path).run(self._grid())
        assert result.mode == "serial"

    def test_corrupt_cache_file_recomputes(self, tmp_path):
        runner = CampaignRunner(noisy_trial, workers=0, cache_dir=tmp_path)
        runner.run(self._grid())
        for path in tmp_path.glob("*.jsonl"):
            path.write_text("{not json")
        assert runner.run(self._grid()).mode == "serial"

    def test_malformed_metric_value_is_a_miss(self, tmp_path):
        """A logged entry whose metric is ``null`` is a miss that
        re-executes that trial, not a ``TypeError`` out of ``run``."""
        runner = CampaignRunner(noisy_trial, workers=0, cache_dir=tmp_path)
        first = runner.run(self._grid())
        (path,) = tmp_path.glob("*.jsonl")
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["metrics"]["value"] = None
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        again = runner.run(self._grid())
        assert again.mode == "serial"
        assert again.records == first.records

    def test_cached_records_keep_live_params(self, tmp_path):
        """Cached runs rebuild records from the live grid, so params
        keep their Python types (enums, tuples) instead of JSON's."""
        runner = CampaignRunner(noisy_trial, workers=0, cache_dir=tmp_path)
        first = runner.run(self._grid())
        again = runner.run(self._grid())
        assert again.summary(offset=10.0)["value"].mean == \
            first.summary(offset=10.0)["value"].mean

    def test_no_cache_dir_never_writes(self, tmp_path):
        runner = CampaignRunner(noisy_trial, workers=0)
        runner.run(self._grid())
        assert not list(tmp_path.iterdir())
