"""Judge a change against its parent from benchmark result files.

``python -m benchmarks.perf compare PARENT CHANGE`` -- each side a
result file or a directory of them, written by ``benchmarks/perf/run.py``
from the parent's and the change's checkouts with the same settings.
Runs pair up by (workload, seed); every workload needs at least
:data:`MIN_PAIRS` pairs, and in time order the side that ran first must
alternate from pair to pair.

For each end-to-end metric of ``BENCHMARK.json`` and each workload:

* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` -- the parent's own spread (interquartile range over
  median) is wider than the bound, and not every change run beats
  every parent run;
* ``improved`` -- the change wins at least nine in ten pairs (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
* ``within bound`` -- otherwise.

The change is rejected when any pairing regressed, when a run failed
its output checks, when the share of failed operations rose (trials
that raised, or simulated rounds that failed), or when simulated
outputs differ between same-seed runs (a speed-up must leave every
simulated counter identical). Exit status: 0 accepted, 1 rejected, 2
not enough comparable runs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from benchmarks.perf.run import load_benchmark, quartiles

MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def load_runs(path) -> list:
    """Every run in a result file, or in the result files of a
    directory."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [run for file in files
            for run in json.loads(file.read_text())["runs"]]


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def judge(parent: list, change: list, bound: float, better: str) -> dict:
    """The verdict on one (metric, workload) from paired samples."""
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    worse_by = ((p_median - c_median) if better == "higher"
                else (c_median - p_median)) / p_median
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    all_better = all(_better(c, p, better) for c in change for p in parent)
    if worse_by > bound:
        verdict = "regressed"
    elif iqr / p_median > bound and not all_better:
        verdict = "unresolved"
    elif (wins >= CLAIM_WIN_SHARE * len(parent)
          and abs(c_median - p_median) > iqr
          and _better(c_median, p_median, better)):
        verdict = "improved"
    else:
        verdict = "within bound"
    return {"parent": [p_q1, p_median, p_q3], "change": [c_q1, c_median, c_q3],
            "pairs": len(parent), "wins": wins, "worse_by": worse_by,
            "verdict": verdict}


def _alternates(pairs) -> bool:
    firsts = [p["started_at"] <= c["started_at"]
              for p, c in sorted(pairs, key=lambda pc: min(
                  pc[0]["started_at"], pc[1]["started_at"]))]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare(parent_runs: list, change_runs: list, benchmark: dict) -> dict:
    """Verdicts per (metric, workload) plus the overall decision."""
    def index(runs):
        return {(r["workload"], r["seed"]): r for r in runs
                if r["trace"] == 0 and not r.get("smoke")}

    parents, changes = index(parent_runs), index(change_runs)
    keys = sorted(parents.keys() & changes.keys())
    workloads = sorted({workload for workload, _ in keys})
    problems, reasons, rows = [], [], []
    for workload in workloads:
        pairs = [(parents[k], changes[k]) for k in keys if k[0] == workload]
        if len(pairs) < MIN_PAIRS:
            problems.append(f"{workload}: {len(pairs)} pairs, "
                            f"need {MIN_PAIRS}")
        elif not _alternates(pairs):
            problems.append(f"{workload}: the side that runs first does "
                            f"not alternate between pairs")
        for p, c in pairs:
            for side, run in (("parent", p), ("change", c)):
                if not run["correct"]:
                    reasons.append(f"{workload} seed {run['seed']}: {side} "
                                   f"failed its output checks")
            if p["digest"] != c["digest"]:
                reasons.append(f"{workload} seed {p['seed']}: simulated "
                               f"outputs differ")
            if (c["failed"] / c["attempted"] > p["failed"] / p["attempted"]
                    or c["failed_fraction"] > p["failed_fraction"]):
                reasons.append(f"{workload} seed {p['seed']}: more failed "
                               f"operations")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = judge([p["metrics"][name]["value"] for p, _ in pairs],
                        [c["metrics"][name]["value"] for _, c in pairs],
                        metric["bound"], metric["better"])
            row.update(workload=workload, metric=name)
            rows.append(row)
            if row["verdict"] == "regressed":
                reasons.append(f"{workload} {name}: worse by "
                               f"{row['worse_by']:.1%} > bound "
                               f"{metric['bound']:.0%}")
    if not workloads:
        problems.append("no (workload, seed) pair appears on both sides")
    decision = ("insufficient" if problems
                else "reject" if reasons else "accept")
    return {"decision": decision, "problems": problems, "reasons": reasons,
            "rows": rows,
            "claims": [f"{r['workload']} {r['metric']}" for r in rows
                       if r["verdict"] == "improved"]}


def per_layer_table(parent_runs: list, change_runs: list) -> list:
    """Median per-layer values of both sides, where both profiled."""
    def medians(runs):
        values = {}
        for run in runs:
            if run["trace"] == 1:
                for name, metric in run["metrics"].items():
                    values.setdefault((run["workload"], name), []).append(
                        metric["value"])
        return {key: statistics.median(v) for key, v in values.items()}

    parent, change = medians(parent_runs), medians(change_runs)
    return [(workload, name, parent[(workload, name)],
             change[(workload, name)])
            for workload, name in sorted(parent.keys() & change.keys())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf compare",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="parent result file or directory")
    parser.add_argument("change", help="change result file or directory")
    args = parser.parse_args(argv)
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    result = compare(parent_runs, change_runs, load_benchmark())
    for row in result["rows"]:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        print(f"{row['workload']:16} {row['metric']:20} parent {p_med:.6g} "
              f"[{p_q1:.6g}, {p_q3:.6g}]  change {c_med:.6g} "
              f"[{c_q1:.6g}, {c_q3:.6g}]  n {row['pairs']} "
              f"wins {row['wins']}  {row['verdict']}")
    for workload, name, p, c in per_layer_table(parent_runs, change_runs):
        print(f"{workload:16} {name:32} parent {p:.6g}  change {c:.6g}")
    for line in result["problems"] + result["reasons"]:
        print(line)
    if result["claims"]:
        print("improved: " + "; ".join(result["claims"]))
    print(result["decision"].upper())
    return {"accept": 0, "reject": 1, "insufficient": 2}[result["decision"]]


if __name__ == "__main__":
    sys.exit(main())
