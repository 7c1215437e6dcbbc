"""The executor subsystem: adaptive choice + serial/process bit-equality."""

import random

import pytest

from repro.campaign import CampaignRunner, ParameterGrid
from repro.campaign.executors import (
    POOL_STARTUP_S,
    choose_executor,
    chunk_specs,
    probe_picklable,
)
from repro.campaign.trials import spec_trial
from repro.scenarios.spec import pool_spec, population_spec

FORGED = tuple(f"203.0.113.{i + 1}" for i in range(4))

#: The golden E2 corruption-bound sweep (same axes/fixed as the golden
#: fixture scenario) — a real end-to-end netsim workload.
E2_GRID_KWARGS = dict(
    spec=pool_spec(num_providers=5, pool_size=24, answers_per_query=4),
    axes={"provider.corrupted": (0, 2)},
    fixed={"provider.forged": FORGED},
)

#: A miniature of the golden P1 population fleet — telemetry-publishing
#: trials, whose registries must survive the trip back from a worker.
P1_GRID_KWARGS = dict(
    spec=population_spec(num_clients=12, rounds=2, forged=FORGED,
                         churn_rate=0.2, arrival="poisson"),
    axes={"provider.corrupted": (0, 1)},
)


def noisy_trial(params, seed):
    rng = random.Random(seed)
    return {"value": params["offset"] + rng.random()}


class TestChooseExecutor:
    def test_short_campaign_stays_serial(self):
        """Below the amortisation threshold nothing can be won."""
        choice = choose_executor(per_spec_s=0.001, pending=20,
                                 workers_cap=8, cpu_count=8)
        assert choice.kind == "serial"

    def test_single_core_machine_stays_serial(self):
        """The measured 0.9x regression: a 4-worker pool on a 1-core
        box is pure overhead, whatever the workload size."""
        choice = choose_executor(per_spec_s=1.0, pending=1000,
                                 workers_cap=4, cpu_count=1)
        assert choice.kind == "serial"

    def test_tiny_trials_in_bulk_fall_through_to_amortisation(self):
        """Sub-millisecond trials get no special case: GIL-bound threads
        never beat serial, so enough of them to amortise the fork pool
        use the pool, and too few stay serial."""
        per_spec = 0.001
        pending = int(POOL_STARTUP_S / per_spec) * 10
        choice = choose_executor(per_spec, pending,
                                 workers_cap=4, cpu_count=4)
        assert choice.kind == "processes"
        assert choice.workers == 4
        assert choose_executor(per_spec, pending // 20, workers_cap=4,
                               cpu_count=4).kind == "serial"

    def test_expensive_trials_use_processes(self):
        choice = choose_executor(per_spec_s=0.5, pending=100,
                                 workers_cap=4, cpu_count=4)
        assert choice.kind == "processes"
        assert choice.mode == "processes:4"

    def test_workers_capped_by_cores_and_pending(self):
        assert choose_executor(0.5, 100, workers_cap=16,
                               cpu_count=2).workers == 2
        assert choose_executor(10.0, 3, workers_cap=16,
                               cpu_count=16).workers == 3

    def test_exact_amortisation_boundary_is_serial(self):
        """Savings equal to pool startup do not justify the pool."""
        # 2 workers -> saving is half the projected serial cost.
        per_spec, pending = POOL_STARTUP_S, 2
        choice = choose_executor(per_spec, pending,
                                 workers_cap=2, cpu_count=2)
        assert choice.kind == "serial"


class TestSpecHelpers:
    def _specs(self, count, params=None):
        return [(noisy_trial, i, f"k={i}", params or {"offset": 0.0}, 0, i)
                for i in range(count)]

    def test_chunks_cover_all_specs_in_order(self):
        specs = self._specs(10)
        chunks = chunk_specs(specs, workers=3)
        assert [s for chunk in chunks for s in chunk] == specs

    def test_chunks_spread_about_four_per_worker(self):
        chunks = chunk_specs(self._specs(40), workers=2)
        assert [len(c) for c in chunks] == [5] * 8
        chunks = chunk_specs(self._specs(10), workers=1)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_probe_accepts_picklable_specs(self):
        assert probe_picklable(self._specs(5))

    def test_probe_rejects_unpicklable_params(self):
        specs = self._specs(3)
        # The representative is the spec with the *most* params — the
        # deepest serialization surface stands in for the grid.
        specs[1] = (noisy_trial, 1, "k=1",
                    {"offset": 0.0, "fn": lambda: None}, 0, 1)
        assert not probe_picklable(specs)

    def test_probe_rejects_unpicklable_trial_fn(self):
        assert not probe_picklable(
            [(lambda p, s: 0.0, 0, "k=0", {"offset": 0.0}, 0, 0)])


class TestThreeWayEquality:
    """serial == processes, bit for bit, on the golden E2/P1 workloads."""

    def _run_all(self, grid_kwargs, name, **runner_kwargs):
        results = {}
        for executor in ("serial", "processes"):
            grid = ParameterGrid.over_spec(name=name, **grid_kwargs)
            results[executor] = CampaignRunner(
                spec_trial, base_seed=7, workers=2, executor=executor,
                **runner_kwargs).run(grid)
        return results

    @pytest.mark.parametrize("other", ["processes"])
    def test_e2_grid_records_bit_identical(self, other):
        results = self._run_all(E2_GRID_KWARGS, "exec_e2",
                                trials_per_point=2)
        serial = results["serial"]
        assert serial.mode == "serial"
        assert results[other].mode == f"{other}:2"
        assert serial.records == results[other].records
        assert (serial.to_json()["results"]
                == results[other].to_json()["results"])

    @pytest.mark.parametrize("other", ["processes"])
    def test_p1_population_records_bit_identical(self, other):
        results = self._run_all(P1_GRID_KWARGS, "exec_p1")
        serial = results["serial"]
        assert serial.records == results[other].records
        assert (serial.to_json()["results"]
                == results[other].to_json()["results"])


class TestAdaptiveSelection:
    def test_tiny_sweep_adapts_to_serial(self):
        """The regression scenario: a small grid with an explicit
        worker budget must not pay pool startup."""
        grid = ParameterGrid({"offset": (0.0, 1.0, 2.0)}, name="adapt-tiny")
        result = CampaignRunner(noisy_trial, trials_per_point=2,
                                base_seed=3, workers=4).run(grid)
        assert result.mode == "serial"
        assert result.executor == "adaptive"

    def test_forced_serial_ignores_workers(self):
        grid = ParameterGrid({"offset": (0.0, 1.0)}, name="forced-serial")
        result = CampaignRunner(noisy_trial, workers=8,
                                executor="serial").run(grid)
        assert result.mode == "serial"

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            CampaignRunner(noisy_trial, executor="fork-bomb")
        with pytest.raises(ValueError, match="executor"):
            CampaignRunner(noisy_trial, executor="threads")

    def test_adaptive_probe_record_is_first_spec(self):
        """The calibration probe is spec[0] run in-process — its record
        lands like any other, so adaptivity never changes the records."""
        grid = ParameterGrid({"offset": (0.0, 1.0)}, name="probe")
        adaptive = CampaignRunner(noisy_trial, trials_per_point=2,
                                  base_seed=11, workers=4).run(grid)
        serial = CampaignRunner(noisy_trial, trials_per_point=2,
                                base_seed=11, executor="serial").run(grid)
        assert adaptive.records == serial.records
