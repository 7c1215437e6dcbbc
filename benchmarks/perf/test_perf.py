"""Tests of the repository benchmark: profiler accounting, the
BENCHMARK.json contract, compare verdicts, and a smoke run of every
workload with its output checks on."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import compare, profiler, run, unit

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Profiler accounting.
# ----------------------------------------------------------------------

def test_nested_layers_pause_the_parent():
    clock = FakeClock()
    prof = profiler.LayerProfiler(clock=clock)
    codec = prof.wrap(lambda: clock.advance(2.0), "codec")

    def fabric_work():
        clock.advance(1.0)
        codec()
        clock.advance(3.0)

    fabric = prof.wrap(fabric_work, "fabric")
    prof.start()
    clock.advance(0.5)
    fabric()
    prof.stop()
    assert prof.self_s["simulator"] == 0.5
    assert prof.self_s["fabric"] == 4.0
    assert prof.self_s["codec"] == 2.0
    assert prof.entries["fabric"] == prof.entries["codec"] == 1
    assert sum(prof.shares().values()) == pytest.approx(1.0)


def test_reentry_into_the_same_layer():
    clock = FakeClock()
    prof = profiler.LayerProfiler(clock=clock)
    inner = prof.wrap(lambda: clock.advance(1.0), "fabric")

    def back_into_fabric():
        clock.advance(2.0)
        inner()

    codec = prof.wrap(back_into_fabric, "codec")

    def outer_work():
        inner()          # same layer on top: passes straight through
        codec()          # fabric -> codec -> fabric again
        clock.advance(4.0)

    outer = prof.wrap(outer_work, "fabric")
    prof.start()
    outer()
    prof.stop()
    assert prof.self_s["fabric"] == 6.0
    assert prof.self_s["codec"] == 2.0
    assert prof.entries["fabric"] == 2      # outer, and inner under codec
    assert prof.stack == ["simulator"]


def test_gc_pause_moves_to_the_gc_layer():
    clock = FakeClock()
    prof = profiler.LayerProfiler(clock=clock)

    def codec_work():
        clock.advance(1.0)
        prof.gc_callback("start", {"generation": 2})
        clock.advance(5.0)
        prof.gc_callback("stop", {"generation": 2})
        clock.advance(1.0)

    prof.start()
    prof.wrap(codec_work, "codec")()
    prof.gc_callback("start", {"generation": 0})
    clock.advance(0.25)
    prof.gc_callback("stop", {"generation": 0})
    prof.stop()
    assert prof.self_s["codec"] == 2.0
    assert prof.self_s["gc"] == 5.25
    assert prof.gen2_collections == 1


def test_exceptions_unwind_the_stack():
    clock = FakeClock()
    prof = profiler.LayerProfiler(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    prof.start()
    with pytest.raises(ValueError):
        prof.wrap(boom, "tls")()
    assert prof.stack == ["simulator"]
    assert prof.self_s["tls"] == 1.0


def test_callbacks_are_charged_to_their_defining_module():
    clock = FakeClock()
    prof = profiler.LayerProfiler(clock=clock)

    def delivery():
        clock.advance(3.0)

    delivery.__module__ = "repro.netsim.internet"
    prof.start()
    prof.wrap_callback(delivery)()
    assert prof.self_s["fabric"] == 3.0

    def unlisted():
        pass

    unlisted.__module__ = "repro.netsim.address"
    assert prof.wrap_callback(unlisted) is unlisted
    assert prof.wrap_callback(None) is None


def test_layer_of_module_takes_the_longest_prefix():
    assert profiler.layer_of_module("repro.dns.cache") == "resolver"
    assert profiler.layer_of_module("repro.core.pool") == "combine"
    assert profiler.layer_of_module("repro.population.fleet") == "population"
    assert profiler.layer_of_module("repro.dns.name") is None
    assert profiler.layer_of_module("repro.coreutils") is None
    assert set(profiler.LAYER_MODULES.values()) <= set(profiler.LAYERS)


# ----------------------------------------------------------------------
# The BENCHMARK.json contract.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_shape(benchmark_spec):
    spec = benchmark_spec
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 for part in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert (ROOT / path).is_dir() and ".." not in path
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert len(json.dumps(spec)) <= 64 * 1024


def test_benchmark_json_matches_the_code(benchmark_spec):
    spec = benchmark_spec
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(unit.SIZES) == list(run.WORKLOADS)
    setup = {m["name"]: m for m in spec["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # A full check -- 4 + 22 runs per workload, each at most
    # run_seconds + 10 s of wall time -- must fit in 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) <= 3420


def test_should_move_names_existing_metrics_and_workloads(benchmark_spec):
    spec = benchmark_spec
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for layer, moves in run.SHOULD_MOVE.items():
        assert any(name.startswith(layer + ".") for name in layer_names)
        for metric, workload in moves:
            assert metric in e2e_names and workload in workloads
    assert {name.split(".")[0] for name in layer_names} == set(run.SHOULD_MOVE)
    assert {f"{layer}.self_share" for layer in profiler.LAYERS} <= layer_names


# ----------------------------------------------------------------------
# compare verdicts on synthetic runs.
# ----------------------------------------------------------------------

def _runs(values, side, digest="d", failed=0, failed_fraction=0.0,
          workload="udp-fleet"):
    """One synthetic run per value; the side that runs first alternates
    from seed to seed."""
    runs = []
    for seed, value in enumerate(values):
        first = (seed % 2 == 0) == (side == "parent")
        runs.append({
            "workload": workload, "seed": seed, "trace": 0,
            "started_at": f"2026-01-01T00:{seed:02d}:{0 if first else 30:02d}",
            "correct": True, "attempted": 100, "failed": failed,
            "failed_fraction": failed_fraction, "digest": digest,
            "metrics": {name: {"value": value if name == "rounds_per_s"
                               else 1.0}
                        for name in ("rounds_per_s", "traced_rounds_per_s",
                                     "setup_s", "peak_rss_mb")}})
    return runs


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def _verdict(result):
    return {row["metric"]: row["verdict"] for row in result["rows"]}[
        "rounds_per_s"]


def test_compare_claims_a_clear_gain(benchmark_spec):
    result = compare.compare(_runs(BASE, "parent"),
                             _runs([v * 1.2 for v in BASE], "change"),
                             benchmark_spec)
    assert _verdict(result) == "improved"
    assert result["decision"] == "accept"
    assert result["claims"] == ["udp-fleet rounds_per_s"]


def test_compare_within_bound_and_regressed(benchmark_spec):
    bound = {m["name"]: m["bound"]
             for m in benchmark_spec["end_to_end"]}["rounds_per_s"]
    small = compare.compare(_runs(BASE, "parent"),
                            _runs([v * (1 - bound / 2) for v in BASE],
                                  "change"),
                            benchmark_spec)
    assert _verdict(small) == "within bound"
    assert small["decision"] == "accept" and not small["claims"]
    large = compare.compare(_runs(BASE, "parent"),
                            _runs([v * (1 - 2 * bound) for v in BASE],
                                  "change"),
                            benchmark_spec)
    assert _verdict(large) == "regressed"
    assert large["decision"] == "reject"


def test_compare_reports_wide_spread_as_unresolved(benchmark_spec):
    noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 95.0]
    result = compare.compare(_runs(noisy, "parent"),
                             _runs(list(reversed(noisy)), "change"),
                             benchmark_spec)
    assert _verdict(result) == "unresolved"


def test_compare_rejects_more_failures_and_changed_outputs(benchmark_spec):
    failing = compare.compare(_runs(BASE, "parent"),
                              _runs(BASE, "change", failed=1),
                              benchmark_spec)
    assert failing["decision"] == "reject"
    more_failed_rounds = compare.compare(
        _runs(BASE, "parent", failed_fraction=0.01),
        _runs(BASE, "change", failed_fraction=0.02), benchmark_spec)
    assert more_failed_rounds["decision"] == "reject"
    changed = compare.compare(_runs(BASE, "parent"),
                              _runs(BASE, "change", digest="other"),
                              benchmark_spec)
    assert changed["decision"] == "reject"


def test_compare_needs_ten_alternating_pairs(benchmark_spec):
    few = compare.compare(_runs(BASE[:9], "parent"),
                          _runs(BASE[:9], "change"), benchmark_spec)
    assert few["decision"] == "insufficient"
    same_order = _runs(BASE, "change")
    for run_ in same_order:
        run_["started_at"] = run_["started_at"][:-2] + "59"
    ordered = compare.compare(_runs(BASE, "parent"), same_order,
                              benchmark_spec)
    assert ordered["decision"] == "insufficient"


# ----------------------------------------------------------------------
# Running the benchmark.
# ----------------------------------------------------------------------

def _command(*args):
    return [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py"),
            *args]


def test_smoke_run_of_every_workload(tmp_path, benchmark_spec):
    jobs = {(workload, 0): _command("--smoke", "--workload", workload,
                                    "--out", str(tmp_path / f"{workload}.json"))
            for workload in run.WORKLOADS}
    jobs[("udp-fleet", 1)] = _command(
        "--smoke", "--workload", "udp-fleet", "--trace", "1",
        "--out", str(tmp_path / "profile.json"))
    processes = {key: subprocess.Popen(command, cwd=ROOT, text=True,
                                       stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE)
                 for key, command in jobs.items()}
    outputs = {key: process.communicate(timeout=120)
               for key, process in processes.items()}
    for (workload, trace), (stdout, stderr) in outputs.items():
        assert processes[(workload, trace)].returncode == 0, stdout + stderr
        result = json.loads(stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        section = benchmark_spec["per_layer" if trace else "end_to_end"]
        assert ({name: m["unit"] for name, m in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in section})

    record = json.loads((tmp_path / "campaign-sweep.json").read_text())
    assert set(record["manifest"]) >= {"git_revision", "nproc", "python"}
    (campaign,) = record["runs"]
    assert campaign["seed"] == 42 and campaign["repeat"] == 0
    assert campaign["executor"]
    profile = json.loads((tmp_path / "profile.json").read_text())["runs"][0]
    shares = [value["value"] for name, value in profile["metrics"].items()
              if name.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "perf",
                    tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "udp-fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
