"""The benchmark's workloads, driving snndfe's public API.

Each workload has a repeatable `setup`, a timed operation `op(state, k)` whose
inputs derive from (seed, k), and `checks(state)` run once after the timed
loop. An operation returns an `OpResult`; a raised exception or a failed
output check counts it as failed. Every call into snndfe goes through its
module attribute (`harness.evaluate_ber`, `train.train`, ...) so that a traced
run's patches see it.

Why these workloads, and which layer each one stresses, is written in
BENCHMARK.json and README.md.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from snndfe import channel, dse, equalizer, fxp, harness, train
from snndfe.channel import ChannelConfig
from snndfe.equalizer import TopologyConfig
from snndfe.quant import QatConfig

import fixture

SNRS_DB = (14.0, 17.0, 20.0)
# Symbols of one timed evaluate_ber call, at one SNR taken in turn from
# SNRS_DB. A short call (about 7 ms float, 35 ms integer at full speed) mostly
# runs at one machine speed, which the speed probe right after it then reads.
OP_SYMBOLS = 60
CHECK_SEED = 2409      # frames of the pinned bit-error check, independent of --seed
CHECK_SYMBOLS = 1000   # per SNR in the pinned check
# Grid prefix of the default DseSpace searched per operation: n_tap 3..9 with
# every hidden width and step count. The whole space (16,000) takes ~11 s per
# search-resume-front cycle; 3,200 take ~0.6 s, so a run holds many, and
# pareto_front, quadratic in the trials, still outweighs the rest of dse's code.
DSE_BUDGET = 3200
DSE_BLOCK = 100  # trials per timed part of one search
# Resumes and fronts per search: each is one long part with one speed probe
# after it, so a run needs more of them than of searches for a steady median.
DSE_FRONTS = 3

# Bit errors per SNR (14, 17, 20 dB) on the CHECK_SEED frames with the stored
# fixture. The integer engine is bit-exact, so its counts must match exactly;
# float and QAT-float counts are reported when they differ (BLAS kernels may
# round differently on other CPUs). "baseline" is the unequalized centroid
# receiver on the same frames.
PINNED_BIT_ERRORS = {
    "float": [267, 210, 180],
    "qat": [264, 215, 172],
    "int": [239, 231, 196],
    "baseline": [225, 180, 178],
}


@dataclass
class OpResult:
    # The timed pieces of one operation: (name, seconds, seconds of the speed
    # probe run right after it). Names repeat for pieces of the same work.
    parts: list
    errors: list = field(default_factory=list)  # failed output checks

    def seconds(self, name: str) -> list:
        return [s for n, s, _ in self.parts if n == name]


def probe_ratio(results: list, name: str) -> float:
    """Median over the run of a part's time over the time of the probe after it."""
    return statistics.median(s / p for r in results for n, s, p in r.parts if n == name)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class BerWorkload:
    """Closed-loop feedback BER at 14/17/20 dB through one engine."""

    warmup = True
    item = "symbols"

    def __init__(self, engine: str, seed: int):
        self.engine, self.seed = engine, seed
        self.stats = None  # set to a dict by a traced run to collect fxp counters
        self.report = {}

    def setup(self):
        constants, arrays = fixture.load_fixture()
        model = fixture.build_model(constants, arrays, qat=self.engine != "float")
        if self.engine == "int":
            model = fxp.convert(model, fxp.FxpFormats(weight_bits=8, state_bits=8))
        return model

    def frames_seed(self, k: int) -> int:
        return harness.derive_seed(self.seed, f"ber:{k}")

    def _curve(self, model, symbols: int, seed: int, stats=None, snrs=SNRS_DB):
        return harness.evaluate_ber(model, ChannelConfig(), snrs, symbols, seed=seed,
                                    stats=stats)

    def op(self, model, k: int, probe) -> OpResult:
        snrs = SNRS_DB[k % len(SNRS_DB):][:1]
        start = time.perf_counter()
        curve = self._curve(model, OP_SYMBOLS, self.frames_seed(k), self.stats, snrs)
        elapsed = time.perf_counter() - start
        errors = [f"{p.snr_db} dB: {p.bit_errors} bit errors of {p.bits_counted}"
                  for p in curve.points if not 0 <= p.bit_errors <= p.bits_counted]
        return OpResult([("call", elapsed, probe())], errors)

    def figures(self, model, results: list) -> dict:
        """One call in probe times; its decisions, one per symbol after the warm-up
        as checks() verifies on equalize_stream's own output. The rate and the
        latency are reciprocals here."""
        call = probe_ratio(results, "call")
        return {"units": OP_SYMBOLS - model.config.history, "op": call, "latency": call,
                "samples_ms": [s * 1e3 for r in results for s in r.seconds("call")]}

    def baseline(self, model, seed: int, symbols: int):
        return harness.evaluate_baseline_ber(ChannelConfig(), model.config.bits_per_symbol,
                                             SNRS_DB, symbols, seed=seed,
                                             warmup=model.config.history)

    def traced_extra(self, model, k: int):
        """The unequalized receiver on the frames of operation k, at every SNR."""
        self.baseline(model, self.frames_seed(k), OP_SYMBOLS)

    def _decisions(self, model, symbols: int, seed: int) -> list:
        """(true classes after the warm-up, decisions) per SNR, on evaluate_ber's frames."""
        m = model.config.bits_per_symbol
        out = []
        for snr_db in SNRS_DB:
            rng = harness.derive_rng(seed, f"eval:snr={snr_db}")
            bits = rng.integers(0, 2, m * symbols)
            classes = channel.bits_to_classes(bits, m)
            _, y = channel.simulate_link(bits, ChannelConfig(), snr_db, rng)
            out.append((classes[model.config.history:], equalizer.equalize_stream(y, model)))
        return out

    def checks(self, model) -> list:
        m = model.config.bits_per_symbol
        streams = self._decisions(model, CHECK_SYMBOLS, CHECK_SEED)
        counts = [harness.count_bit_errors(true, decided, m) for true, decided in streams]
        curve = self._curve(model, CHECK_SYMBOLS, CHECK_SEED)
        curve_counts = [p.bit_errors for p in curve.points]
        base = [p.bit_errors for p in self.baseline(model, CHECK_SEED, CHECK_SYMBOLS).points]
        pinned = PINNED_BIT_ERRORS[self.engine]
        self.report = {
            "check_snrs_db": list(SNRS_DB),
            "check_decisions": [len(decided) for _, decided in streams],
            "bit_errors": counts,
            "bit_errors_differ_from_pinned": counts != pinned,
            "baseline_bit_errors": base,
            "baseline_differs_from_pinned": base != PINNED_BIT_ERRORS["baseline"],
            "beats_unequalized_baseline": [c < b for c, b in zip(counts, base)],
        }
        expected = CHECK_SYMBOLS - model.config.history
        out = [
            Check("one decision per symbol after the warm-up",
                  all(len(decided) == expected for _, decided in streams),
                  f"got {self.report['check_decisions']}, expected {expected} per SNR"),
            Check("evaluate_ber counts the errors of equalize_stream's decisions",
                  curve_counts == counts, f"evaluate_ber {curve_counts}, direct {counts}"),
        ]
        if self.engine == "int":
            out.append(Check("integer bit errors equal the pinned counts", counts == pinned,
                             f"got {counts}, pinned {pinned}"))
        return out


class TrainWorkload:
    """`train.train` from scratch, timed per step through its progress callback."""

    warmup = False
    item = "windows"

    def __init__(self, seed: int, topology: TopologyConfig, batch_size: int,
                 batches: int, qat: QatConfig | None):
        self.seed, self.topology, self.batch_size = seed, topology, batch_size
        self.batches, self.qat = batches, qat
        self.stats = None
        self.report = {}

    def setup(self):
        return ChannelConfig()

    def op(self, channel_cfg, k: int, probe) -> OpResult:
        cfg = train.TrainConfig(epochs=1, batches_per_epoch=self.batches,
                                batch_size=self.batch_size, qat=self.qat,
                                seed=harness.derive_seed(self.seed, f"train:{k}"))
        # The first step's part also holds the call's encoder calibration and
        # model and Adam init; the parts together are the whole call.
        parts = []
        start = time.perf_counter()

        def progress(*_):
            nonlocal start
            end = time.perf_counter()
            parts.append(("step" if parts else "first step", end - start, probe()))
            start = time.perf_counter()

        _, log = train.train(channel_cfg, self.topology, cfg, progress=progress)
        losses = np.array([row[1] for row in log])
        errors = []
        if not np.all(np.isfinite(losses)):
            errors.append("non-finite loss")
        tenth = max(1, len(losses) // 10)
        first, last = losses[:tenth].mean(), losses[-tenth:].mean()
        if not last < first:
            errors.append(f"loss did not fall: first tenth {first:.4f}, last {last:.4f}")
        return OpResult(parts, errors)

    def figures(self, channel_cfg, results: list) -> dict:
        """A whole call in probe times, as a DSE trial pays it (calibration, init,
        every step), and one step after the first."""
        step = probe_ratio(results, "step")
        return {"units": self.batches * self.batch_size,
                "op": probe_ratio(results, "first step") + (self.batches - 1) * step,
                "latency": step,
                "samples_ms": [s * 1e3 for r in results for s in r.seconds("step")]}

    def checks(self, channel_cfg) -> list:
        return []

    def traced_extra(self, channel_cfg, k: int):
        pass


def synthetic_trial(config: dict, channel_cfg, scale, seed: int) -> dse.TrialResult:
    """Trial runner with no training: a seeded BER map falling with SNR."""
    topo = TopologyConfig(n_tap=config["n_tap"], hidden=config["hidden"],
                          steps=config["steps"])
    rng = np.random.default_rng(seed)
    bers = np.sort(10.0 ** rng.uniform(-6.0, -1.0, len(scale.snrs_db)))[::-1]
    return dse.TrialResult(
        n_tap=topo.n_tap, hidden=topo.hidden, steps=topo.steps, bits=config["bits"],
        mac=topo.macs_per_symbol(), ber={float(s): float(b) for s, b in zip(scale.snrs_db, bers)},
        seed=seed, wall_time_s=0.0,
    )


def brute_force_front(trials, snr_db: float) -> list:
    """Config keys of the trials no other trial dominates on (mac, BER), by the definition.

    A trial is dominated when another has mac and BER both no larger and one
    smaller. Ordered by (mac, BER, input order), as `dse.pareto_front` orders.
    """
    mac = np.array([t.mac for t in trials], dtype=np.int64)
    ber = np.array([t.ber[snr_db] for t in trials])
    keep = np.ones(len(trials), dtype=bool)
    chunk = 256
    for lo in range(0, len(trials), chunk):
        m, b = mac[lo:lo + chunk, None], ber[lo:lo + chunk, None]
        dominated = (mac[None, :] <= m) & (ber[None, :] <= b) & (
            (mac[None, :] < m) | (ber[None, :] < b))
        keep[lo:lo + chunk] = ~dominated.any(axis=1)
    idx = sorted(np.flatnonzero(keep), key=lambda i: (mac[i], ber[i], i))
    return [trials[i].config_key() for i in idx]


class DseWorkload:
    """`dse.search` over a grid prefix of the default space with a synthetic trial
    runner, then the resumed search and `dse.pareto_front` over every trial."""

    warmup = False
    item = "trials"
    front_snr_db = 17.0

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.path = os.path.join(out_dir, f"dse-{os.getpid()}.jsonl")
        self.stats = None
        self.trials_run = 0
        # The operation in progress: its parts so far, its probe, the trial
        # count its search started at and when its current block started.
        self.parts, self.probe, self.search_first, self.block_start = [], None, 0, 0.0
        self.report = {}

    def setup(self):
        space = dse.DseSpace()
        return space, {(c["n_tap"], c["hidden"], c["steps"], c["bits"])
                       for c in space.enumerate()[:DSE_BUDGET]}

    def trial_runner(self, *args):
        done = self.trials_run - self.search_first
        if done and done % DSE_BLOCK == 0:
            self._end_block()
        self.trials_run += 1
        return synthetic_trial(*args)

    def _end_block(self):
        end = time.perf_counter()
        name = "block" if self.parts else "first block"
        self.parts.append((name, end - self.block_start, self.probe()))
        self.block_start = time.perf_counter()

    def op(self, state, k: int, probe) -> OpResult:
        space, keys = state
        seed = harness.derive_seed(self.seed, f"dse:{k}")
        if os.path.exists(self.path):
            os.remove(self.path)
        # The search is timed in blocks of DSE_BLOCK trials (the first also
        # holds search's own set-up), then DSE_FRONTS resumes and fronts, each apart.
        self.parts, self.probe, self.search_first = [], probe, self.trials_run
        try:
            before = self.trials_run
            self.block_start = time.perf_counter()
            results = dse.search(space, ChannelConfig(), "grid", len(keys), seed,
                                 results_path=self.path, trial_runner=self.trial_runner)
            self._end_block()
            fresh = self.trials_run - before
            for _ in range(DSE_FRONTS):
                start = time.perf_counter()
                resumed = dse.search(space, ChannelConfig(), "grid", len(keys), seed,
                                     results_path=self.path, trial_runner=self.trial_runner)
                self.parts.append(("resume", time.perf_counter() - start, probe()))
                start = time.perf_counter()
                front = dse.pareto_front(resumed, self.front_snr_db)
                self.parts.append(("front", time.perf_counter() - start, probe()))
        finally:
            if os.path.exists(self.path):
                os.remove(self.path)
        errors = []
        for label, got in (("search", results), ("resume", resumed)):
            got_keys = [t.config_key() for t in got]
            if len(got_keys) != len(keys) or set(got_keys) != keys:
                errors.append(f"{label} did not return every configuration exactly once")
        if fresh != len(keys):
            errors.append(f"search ran {fresh} trials, expected {len(keys)}")
        if self.trials_run - before != fresh:
            errors.append(f"resume ran {self.trials_run - before - fresh} new trials")
        if [t.config_key() for t in front] != brute_force_front(resumed, self.front_snr_db):
            errors.append("pareto_front differs from the brute-force front")
        self.report = {"trials": len(keys), "front_size": len(front)}
        return OpResult(self.parts, errors)

    def figures(self, state, results: list) -> dict:
        """A whole search, and a resume plus front, in probe times."""
        trials = len(state[1])
        search = (probe_ratio(results, "first block")
                  + (trials // DSE_BLOCK - 1) * probe_ratio(results, "block"))
        return {"units": trials, "op": search,
                "latency": probe_ratio(results, "resume") + probe_ratio(results, "front"),
                "samples_ms": [(a + b) * 1e3 for r in results
                               for a, b in zip(r.seconds("resume"), r.seconds("front"))]}

    def checks(self, state) -> list:
        return []

    def traced_extra(self, state, k: int):
        pass


PAPER = TopologyConfig(n_tap=17, hidden=72, steps=5)
# A DSE trial's training budget: 120 batches of 500 windows.
DESK = dse.TrialScale()
DESK_BATCHES = DESK.train_symbols // DESK.batch_size


def make(name: str, seed: int, out_dir: str):
    """The workload named in BENCHMARK.json."""
    if name in ("ber_float", "ber_qat", "ber_int"):
        workload = BerWorkload(name.split("_")[1], seed)
    elif name == "train_desk":
        workload = TrainWorkload(seed, PAPER, DESK.batch_size, DESK_BATCHES, None)
    elif name == "train_desk_qat":
        workload = TrainWorkload(seed, PAPER, DESK.batch_size, DESK_BATCHES, QatConfig(8, 8))
    elif name == "dse_sweep":
        workload = DseWorkload(seed, out_dir)
    else:
        raise KeyError(name)
    workload.name = name
    return workload
