"""Run every workload (or a chosen few) over several seeds and summarise.

    python3 perfbench/suite.py                       # every workload, seed 0
    python3 perfbench/suite.py --seeds 1-10 --out perfbench/out/set1.json
    python3 perfbench/suite.py --workloads ber_int --seeds 7919 --trace 1

Each (workload, seed) runs `perfbench/run.py` in its own process, one after
another, for BENCHMARK.json's run_seconds, so peak memory is per workload,
runs never overlap and every set is run at the same length. The summary
prints every end-to-end metric by name and unit, with the name the workload's
number goes by (float_sym_per_s, step_p50_ms, ...), as the median and
quartiles over the seeds and their spread: (q3 - q1) / median. The output
file holds the run record (machine, versions, commit, seeds, workload reasons)
and every run's result, and is what compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import LABELS  # noqa: E402

# Seed kept out of tuning; a later change claiming a gain must also hold on it.
HELD_OUT_SEED = 7919


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
                "returncode": proc.returncode, "result": None}
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "returncode": proc.returncode, "result": json.loads(lines[-1])}


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """OpenBLAS's thread count, read from the loaded library; None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs: list, spec: dict) -> list:
    """Rows of (workload, metric, unit, n, q1, median, q3, spread, label)."""
    rows = []
    for w in spec["workloads"]:
        mine = [r for r in runs if r["workload"] == w["name"] and r["result"]]
        if not mine:
            continue
        names = sorted({n for r in mine for n in r["result"]["metrics"]},
                       key=list(mine[0]["result"]["metrics"]).index)
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            unit = mine[0]["result"]["metrics"][name]["unit"]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            rows.append((w["name"], name, unit, len(values), q1, med, q3, spread,
                         label(w["name"], name)))
        fails = sum(r["result"]["failed"] for r in mine)
        tries = sum(r["result"]["attempted"] for r in mine)
        rows.append((w["name"], "failed_frac", "ratio", len(mine), None, fails / tries, None,
                     None, "failed_frac"))
    return rows


def label(workload: str, metric: str) -> str:
    """The metric under the name the workload's number goes by."""
    rate, unit, noun = LABELS[workload]
    if metric == "rate_per_s":
        return f"{rate} [{unit}]"
    if metric == "op_ms":
        return f"{noun}_ms"
    return metric


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0", help="e.g. 0 or 1-10 or 1,3,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the run record and results to this JSON file")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    record = {
        "commit": git_sha(), "environment": environment(), "seeds": seeds,
        "held_out_seed": HELD_OUT_SEED, "seconds": spec["run_seconds"], "trace": args.trace,
        "workloads": {w["name"]: w["why"] for w in spec["workloads"] if w["name"] in workloads},
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    runs = []
    for workload in workloads:
        for seed in seeds:
            run = run_one(workload, seed, spec["run_seconds"], args.trace)
            runs.append(run)
            res = run["result"]
            status = "ERROR" if res is None else (
                f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            print(f"{workload} seed {seed}: {status} ({run['wall_s']:.1f} s)", flush=True)
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps({"record": record, "runs": runs}, indent=1) + "\n")

    print(f"\n{'workload':<15} {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7}  n  unit")
    for workload, name, unit, n, q1, med, q3, spread, shown in summarise(runs, spec):
        if q1 is None:
            print(f"{workload:<15} {shown:<34} {med:>12.6g} {'':>12} {'':>12} {'':>7} {n:>2}"
                  f"  {unit}")
        else:
            print(f"{workload:<15} {shown:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {n:>2}  {unit}")
    bad = [r for r in runs if r["result"] is None or not r["result"]["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
