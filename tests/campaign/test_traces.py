"""Campaign-level tracing: sampling, executor equality, export.

``CampaignRunner(include_traces=True)`` wraps each sampled trial in a
per-trial tracer whose snapshot rides the trial record through every
path a record can take — executor workers, the campaign store's record
log (resume and cache hit), the aggregated result. The core contract
mirrors the metrics one: both executors produce byte-identical traces,
and a
sampled-out trial runs with no tracer at all (same bytes as an
untraced run).
"""

import json

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.scenarios.spec import population_spec
from repro.telemetry.trace import should_sample

FORGED = ("203.0.113.1", "203.0.113.2")

GRID = ParameterGrid.over_spec(
    population_spec(num_clients=3, rounds=2, num_providers=3,
                    behavior="substitute", forged=FORGED,
                    pool_size=8, answers_per_query=4),
    {"provider.corrupted": (0, 1)},
    name="traced_grid")


def _run(executor, **kwargs):
    kwargs.setdefault("include_traces", True)
    runner = CampaignRunner(spec_trial, trials_per_point=2,
                            base_seed=7, workers=2, executor=executor,
                            **kwargs)
    return runner.run(GRID)


def _trace_map(result):
    return {(summary.point_key, trial): json.dumps(snapshot, sort_keys=True)
            for summary in result.summaries
            for trial, snapshot in summary.traces.items()}


class TestExecutorEquality:
    def test_serial_processes_trace_identically(self):
        serial = _trace_map(_run("serial"))
        assert serial and all(serial.values())
        assert _trace_map(_run("processes")) == serial


class TestTraceContent:
    def test_every_trial_roots_at_campaign_trial(self):
        for (key, trial), encoded in _trace_map(_run("serial")).items():
            snapshot = json.loads(encoded)
            root = snapshot["spans"][0]
            assert root["name"] == "campaign.trial"
            assert root["parent"] is None
            assert root["attrs"]["point"] == key
            assert root["attrs"]["trial"] == trial

    def test_traces_reach_the_json_export(self):
        payload = _run("serial").to_json()
        traced_points = [point for point in payload["results"]
                         if "traces" in point]
        assert traced_points
        for point in traced_points:
            for snapshot in point["traces"].values():
                assert snapshot["spans"]


class TestSampling:
    def test_rate_zero_attaches_no_traces(self):
        result = _run("serial", trace_sample=0.0)
        assert _trace_map(result) == {}

    def test_partial_rate_traces_exactly_the_sampled_subset(self):
        rate = 0.5
        traced = _trace_map(_run("serial", trace_sample=rate))
        for summary in _run("serial").summaries:
            for trial in range(2):
                expected = should_sample(summary.point_key, trial, rate)
                assert ((summary.point_key, trial) in traced) == expected

    def test_untraced_runs_report_identical_metrics(self):
        traced = _run("serial")
        plain = CampaignRunner(spec_trial, trials_per_point=2,
                               base_seed=7, workers=2,
                               executor="serial").run(GRID)
        for with_traces, without in zip(traced.summaries, plain.summaries):
            assert with_traces["victim_fraction"].mean == (
                without["victim_fraction"].mean)


class TestFingerprint:
    def test_tracing_config_lands_in_the_fingerprint(self):
        plain = CampaignRunner(spec_trial, base_seed=7)
        traced = CampaignRunner(spec_trial, base_seed=7,
                                include_traces=True)
        sampled = CampaignRunner(spec_trial, base_seed=7,
                                 include_traces=True, trace_sample=0.5)
        prints = {runner._fingerprint(GRID.name, runner.specs(GRID))
                  for runner in (plain, traced, sampled)}
        assert len(prints) == 3

    def test_invalid_sample_rate_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            CampaignRunner(spec_trial, trace_sample=1.5)
