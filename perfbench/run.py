"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ber_int --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: snndfe is imported from its `src/`.

With --trace 0 the workload's operations run untraced for --seconds and the
end-to-end metrics of BENCHMARK.json are reported. The machine this was built
on (2 shared vCPUs) runs up to 2x slower for milliseconds to minutes at a
time, in CPU time as much as in wall time, so:

- each operation is timed in short parts (one evaluate_ber call, one training
  step, a block of DSE trials, ...), each followed by `speed_probe()`, fixed
  work that calls no snndfe code and slows with the machine as the workloads
  do. A figure is the median over the run of a part's time over its probe's,
  times REFERENCE_PROBE_S: the part's time on a machine whose probe takes
  that long. Medians and tail percentiles of the parts as timed are printed
  beside them;
- set-up time is the median of this process and eight fresh ones started
  between operations across the run, each timed from its first line until the
  workload is ready, as timed.

With --trace 1 each operation runs twice in turn, untraced and then with spans
recorded around snndfe's public functions, and the per-layer metrics are
reported, with the tracing overhead (traced minus untraced wall time of the
same operations).

Human-readable lines come first; the last line of stdout is the JSON result.
Details and spans are written under perfbench/out/.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# One BLAS thread, set before numpy loads. With two on a 2-vCPU machine, one
# other busy process stalls the threads' hand-offs and a training step's
# median time doubled; one thread is as fast when the machine is idle.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROCESSES = 8  # fresh processes timed for setup_s, spread over the timed loop
# About speed_probe()'s fastest time on the machine baseline.json was measured
# on; declared timings are scaled to a machine this fast.
REFERENCE_PROBE_S = 0.0005

# The names the workload's numbers go by: (rate name, rate unit, what one
# latency sample times).
LABELS = {
    "ber_float": ("float_sym_per_s", "symbols/s", "evaluate_ber"),
    "ber_qat": ("qat_sym_per_s", "symbols/s", "evaluate_ber"),
    "ber_int": ("int_sym_per_s", "symbols/s", "evaluate_ber"),
    "train_desk": ("train_win_per_s", "windows/s", "step"),
    "train_desk_qat": ("qat_train_win_per_s", "windows/s", "step"),
    "dse_sweep": ("dse_trials_per_s", "trials/s", "front"),
}


def import_snndfe():
    """Import snndfe from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import snndfe
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import snndfe from {src}: {exc}")
    if pathlib.Path(snndfe.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: snndfe was imported from {snndfe.__file__}, not from {src}")


def install_patches(tracer, workload):
    """Span every public layer function where its caller looks it up.

    The DSE workload's synthetic trial runner is benchmark code; its span keeps
    it out of dse.search's self time.
    """
    from snndfe import channel, dse, equalizer, fxp, harness, train

    symbols = ("channel.symbols", lambda r: int(r[0].size))
    tracer.patch(harness, "simulate_link", "channel.simulate_link", symbols)
    tracer.patch(train, "simulate_link", "channel.simulate_link", symbols)
    for stage in ("gray_map", "rrc_taps", "chromatic_dispersion", "square_law", "add_awgn"):
        tracer.patch(channel, stage, f"channel.{stage}")
    tracer.patch(harness, "equalize_stream", "equalizer.equalize_stream")
    tracer.patch(equalizer, "encode_window", "equalizer.encode_window")
    tracer.patch_decider(equalizer.EqualizerModel, "equalizer.decide", "equalizer.dense_macs")
    tracer.patch_decider(fxp.FxpModel, "equalizer.decide", "equalizer.dense_macs")
    tracer.patch(equalizer, "fake_quantize", "quant.fake_quantize")
    tracer.patch(train, "fake_quantize_with_mask", "quant.fake_quantize_with_mask")
    for name in ("fxp_forward", "fxp_lif_step", "convert"):
        tracer.patch(fxp, name, f"fxp.{name}")
    tracer.patch(train, "train", "train.train")
    tracer.patch(train, "teacher_forced_windows", "train.teacher_forced_windows",
                 ("train.windows", lambda r: int(r[1].size)))
    for name in ("loss_and_grads", "adam_step", "calibrate_encoder"):
        tracer.patch(train, name, f"train.{name}")
    for name in ("evaluate_ber", "count_bit_errors", "evaluate_baseline_ber"):
        tracer.patch(harness, name, f"harness.{name}")
    for name in ("search", "load_results", "pareto_front"):
        tracer.patch(dse, name, f"dse.{name}")
    if hasattr(workload, "trial_runner"):
        tracer.patch(workload, "trial_runner", "bench.trial_runner")


@functools.cache
def _probe_data():
    import numpy as np

    return np.random.default_rng(0).standard_normal((72, 72)), np.ones(72)


def speed_probe() -> float:
    """Seconds of fixed work that calls no snndfe code: 200 small matrix-vector
    products and tanh, the many small numpy calls the workloads are made of.

    Of the kinds of work tried (an interpreter loop, these products, 1 MB
    copies, 500x72 matrix products), this one's time rose and fell with the
    workloads' own through the machine's fast and slow periods most closely.
    """
    import numpy as np

    a, v = _probe_data()
    start = time.perf_counter()
    for _ in range(200):
        v = np.tanh(a @ v)
    return time.perf_counter() - start


class Runner:
    """Runs operations of one workload, counting attempts and failures."""

    def __init__(self, workload, probe):
        self.workload, self.probe = workload, probe
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_op(self, state, k: int):
        """The operation's OpResult, or None when it raised."""
        self.attempted += 1
        try:
            result = self.workload.op(state, k, self.probe)
        except Exception:  # noqa: BLE001 - a raising operation is a counted failure
            self.failed += 1
            self.failures.append(f"op {k} raised:\n{traceback.format_exc()}")
            return None
        if result.errors:
            self.failed += 1
            self.failures.append(f"op {k}: " + "; ".join(result.errors))
        return result

    def warm_up(self, state) -> int:
        """Run operation 0 untimed if the workload asks for it; the first timed k."""
        if not self.workload.warmup:
            return 0
        self.run_op(state, 0)
        return 1

    def run_checks(self, state):
        for check in self.workload.checks(state):
            self.attempted += 1
            if not check.ok:
                self.failed += 1
                self.failures.append(f"check '{check.name}' failed: {check.detail}")


def tail_percentile(samples: list):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it, or None."""
    n = len(samples)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return None


def timed_setup(args) -> float:
    """Set-up seconds of one fresh process of this workload."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def end_to_end(workload, runner, state, seconds: float, setup_times: list,
               time_setup) -> tuple:
    """Operations for `seconds`, with `time_setup()` set-up timings spread between them.

    Each figure is a median ratio of a part's time to the speed probe's right
    after it (see the workload's `figures`), times REFERENCE_PROBE_S.
    """
    first_k = runner.warm_up(state)
    results = []
    k = first_k
    op_s = 0.0
    while k == first_k or op_s < seconds:
        if len(setup_times) <= SETUP_PROCESSES * op_s / seconds:
            setup_times.append(time_setup())
        start = time.perf_counter()
        result = runner.run_op(state, k)
        op_s += time.perf_counter() - start
        if result is not None:
            results.append(result)
        k += 1
    while len(setup_times) <= SETUP_PROCESSES:
        setup_times.append(time_setup())
    runner.run_checks(state)
    if not results:
        return {}, {}
    fig = workload.figures(state, results)
    samples = fig["samples_ms"]
    values = {
        "rate_per_s": fig["units"] / (fig["op"] * REFERENCE_PROBE_S),
        "op_ms": fig["latency"] * REFERENCE_PROBE_S * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    probes = [p * 1e3 for r in results for _, _, p in r.parts]
    rate_name, rate_unit, noun = LABELS[workload.name]
    extra = {
        "speed_probe_ms": f"{statistics.median(probes):.6g} ms median, {min(probes):.6g} min "
                          f"of {len(probes)} (reference {REFERENCE_PROBE_S * 1e3:g} ms)",
        rate_name: f"{values['rate_per_s']:.6g} {rate_unit} at reference speed "
                   f"({len(results)} operations of {fig['units']} {workload.item})",
        f"{noun}_ms": f"{values['op_ms']:.6g} ms at reference speed",
        f"{noun}_p50_ms": f"{statistics.median(samples):.6g} ms as timed",
        f"{noun}_samples": len(samples),
    }
    tail = tail_percentile(samples)
    if tail is not None and tail[0] != 50:
        extra[f"{noun}_p{tail[0]}_ms"] = f"{tail[1]:.6g} ms as timed"
    return values, extra


def traced(workload, runner, state, seconds: float, out_stem: str) -> tuple:
    from tracing import Tracer

    first_k = runner.warm_up(state)
    tracer = Tracer()
    trials_before = getattr(workload, "trials_run", 0)
    fxp_stats = {}

    def traced_call(fn, *args):
        install_patches(tracer, workload)
        workload.stats = fxp_stats
        try:
            return fn(*args)
        finally:
            workload.stats = None
            tracer.restore()

    traced_state = traced_call(workload.setup)
    untraced_s = traced_s = 0.0
    k = first_k
    start = time.perf_counter()
    while k == first_k or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        runner.run_op(state, k)
        t1 = time.perf_counter()
        traced_call(runner.run_op, traced_state, k)
        untraced_s += t1 - t0
        traced_s += time.perf_counter() - t1
        k += 1
    traced_call(workload.traced_extra, traced_state, first_k)
    runner.run_checks(state)

    for key in ("saturations", "state_clips"):
        tracer.counts[f"fxp.{key}"] += fxp_stats.get(key, 0)
    # each operation ran untraced and traced: count the traced trials only
    tracer.counts["dse.trials"] = (getattr(workload, "trials_run", 0) - trials_before) // 2
    tracer.write(OUT_DIR / f"{out_stem}-spans.json")

    values = {"trace.overhead_s": traced_s - untraced_s,
              "trace.overhead_frac": (traced_s - untraced_s) / untraced_s}
    values.update(tracer.counts)
    for name, row in tracer.summary().items():
        for kind, value in row.items():
            values[f"{name}.{kind}"] = value
    extra = {"operations": k - first_k, "untraced_s": f"{untraced_s:.6g} s",
             "traced_s": f"{traced_s:.6g} s", "spans": len(tracer.spans)}
    return values, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, print the seconds since start, and exit")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    import_snndfe()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, str(OUT_DIR))
    state = workload.setup()
    own_setup = time.perf_counter() - START
    if args.setup_only:
        print(own_setup)
        return 0

    out_stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # no speed probes: their time would land in the spans of train.train
        # and dse.search
        runner = Runner(workload, lambda: 0.0)
        values, extra = traced(workload, runner, state, args.seconds, out_stem)
        declared = spec["per_layer"]
    else:
        runner = Runner(workload, speed_probe)
        setup_times = [own_setup]
        values, extra = end_to_end(workload, runner, state, args.seconds, setup_times,
                                   lambda: timed_setup(args))
        values["setup_s"] = statistics.median(setup_times)
        extra["setup_min_s"] = f"{min(setup_times):.6g} s"
        extra["setup_samples"] = len(setup_times)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0)), "unit": m["unit"]}
               for m in declared}
    failed_frac = runner.failed / runner.attempted

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} attempted, {runner.failed} failed")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for key, value in {**extra, **workload.report}.items():
        print(f"{key} {value}")
    print(f"failed_frac {failed_frac:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "extra": extra,
               "report": workload.report, "failures": runner.failures,
               "failed_frac": failed_frac, "metrics": metrics}
    (OUT_DIR / f"{out_stem}.json").write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
