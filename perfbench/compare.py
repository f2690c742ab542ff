"""Compare two result sets from suite.py, per (workload, end-to-end metric).

    python3 perfbench/compare.py PARENT.json CHANGE.json

Both sets must come from runs of the same length (BENCHMARK.json's
run_seconds); the tool refuses sets that differ. Runs are paired by seed (both
sets should use the same seeds, run alternately where possible). For each pair
of metric and workload it prints each side's median and quartiles, the pairs
the change won (ties count for neither), each side's failed_frac (failed over
attempted operations of the workload's runs) and a verdict:

- failed checks: a run of the change reported correct=false or no result, or
  the change failed more operations than the parent; no gain is claimed, and
  the verdict the numbers alone would give follows in parentheses;
- improved: the change won at least nine tenths of the pairs and its median
  differs from the parent's by more than the parent's quartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json, and both sides' relative spreads are within
  that bound;
- unresolved: either side's relative spread, (q3 - q1) / median, exceeds the
  bound, unless every run of the change reads better than every parent run;
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from suite import quartiles  # noqa: E402


def by_seed(result_set: dict, workload: str, metric: str) -> dict:
    return {r["seed"]: r["result"]["metrics"][metric]["value"]
            for r in result_set["runs"]
            if r["workload"] == workload and r["result"] and r["trace"] == 0}


def failures(result_set: dict, workload: str) -> tuple:
    """(failed, attempted, every run correct) over the workload's untraced runs.

    A run that printed no result counts as one failed operation.
    """
    runs = [r for r in result_set["runs"] if r["workload"] == workload and r["trace"] == 0]
    failed = sum(r["result"]["failed"] if r["result"] else 1 for r in runs)
    attempted = sum(r["result"]["attempted"] if r["result"] else 1 for r in runs)
    return failed, attempted, all(r["result"] and r["result"]["correct"] for r in runs)


def verdict(parent: list, change: list, pairs: list, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    worse_by = sign * (p_med - c_med) / p_med
    p_spread, c_spread = (p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1:
        return wins, worse_by, "improved"
    if max(p_spread, c_spread) > bound and not all_better:
        return wins, worse_by, "unresolved"
    if worse_by > bound:
        return wins, worse_by, "worse"
    return wins, worse_by, "unchanged"


def compare(parent: dict, change: dict, spec: dict) -> list:
    rows = []
    for w in spec["workloads"]:
        p_failed, p_tries, _ = failures(parent, w["name"])
        c_failed, c_tries, c_correct = failures(change, w["name"])
        failed_frac = (p_failed / p_tries if p_tries else 0.0,
                       c_failed / c_tries if c_tries else 0.0)
        for m in spec["end_to_end"]:
            p_runs = by_seed(parent, w["name"], m["name"])
            c_runs = by_seed(change, w["name"], m["name"])
            if not p_runs or not c_runs:
                continue
            seeds = sorted(set(p_runs) & set(c_runs))
            if seeds:
                pairs = [(p_runs[s], c_runs[s]) for s in seeds]
            else:
                pairs = list(zip(p_runs.values(), c_runs.values()))
            p_vals, c_vals = list(p_runs.values()), list(c_runs.values())
            wins, worse_by, result = verdict(p_vals, c_vals, pairs, m["better"], m["bound"])
            if not c_correct or c_failed > p_failed:
                result = f"failed checks ({result})"
            rows.append((w["name"], m["name"], m["unit"], quartiles(p_vals), quartiles(c_vals),
                         wins, len(pairs), failed_frac, worse_by, result))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = json.loads(pathlib.Path(args.parent).read_text())
    change = json.loads(pathlib.Path(args.change).read_text())
    lengths = parent["record"].get("seconds"), change["record"].get("seconds")
    if lengths[0] != lengths[1] or lengths[0] != spec["run_seconds"]:
        sys.exit(f"compare: runs of {lengths[0]} s and {lengths[1]} s; both sets must use "
                 f"BENCHMARK.json's run_seconds ({spec['run_seconds']} s)")
    print(f"parent {parent['record'].get('commit')}  change {change['record'].get('commit')}")
    print(f"{'workload':<15} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>6} {'failed_frac':>17} {'worse by':>9}"
          f"  verdict")
    for (workload, metric, unit, p, c, wins, n, failed_frac, worse_by,
         result) in compare(parent, change, spec):
        p_txt = f"{p[1]:.5g} [{p[0]:.5g}, {p[2]:.5g}] {unit}"
        c_txt = f"{c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}] {unit}"
        f_txt = f"{failed_frac[0]:.3g} / {failed_frac[1]:.3g}"
        print(f"{workload:<15} {metric:<12} {p_txt:<34} {c_txt:<34} {wins:>3}/{n:<2} "
              f"{f_txt:>17} {worse_by:>+8.1%}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
