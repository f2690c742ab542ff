"""Design-space exploration over (n_tap, hidden, steps): train, evaluate,
record MAC cost and BER, and extract the cost/performance Pareto front.

Search is seeded grid or random sampling without replacement; every finished
trial is appended to a JSON-lines results file immediately so long sweeps can
resume by skipping configurations that are already present. Per-trial seeds
derive from hash(master seed, config), making results schedule-independent.
"""

from __future__ import annotations

import itertools
import json
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig, check_int
from .equalizer import TopologyConfig
from .fxp import ConversionError, FxpFormats, FxpLifSpec, convert
from .harness import check_eval_symbols, derive_seed, evaluate_ber
from .quant import QatConfig, state_format
from .train import TrainConfig, TrainingDiverged, default_lif, train


@dataclass(frozen=True)
class TrialScale:
    """Per-trial budget, uniform across configurations, training at
    train.TRAIN_SNR_DB with TrainConfig's defaults (train_symbols one epoch).
    ValueError for no SNR points, a setting TrainConfig refuses, or counts
    (plain ints) below one batch of train_symbols or one eval symbol."""

    train_symbols: int = TrainConfig.batches_per_epoch * TrainConfig.batch_size
    eval_symbols: int = 20_000
    snrs_db: tuple = tuple(range(12, 22))
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate

    def __post_init__(self):
        if not self.snrs_db:
            raise ValueError("TrialScale.snrs_db must be nonempty")
        cfg = TrainConfig(learning_rate=self.learning_rate, batch_size=self.batch_size)
        object.__setattr__(self, "batch_size", cfg.batch_size)
        for name, lo in (("train_symbols", cfg.batch_size), ("eval_symbols", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))


@dataclass(frozen=True)
class DseSpace:
    """Candidate grid; `bits` entries of None evaluate the float model. ValueError
    for an empty range, a value run_trial's configurations refuse (a bit width
    whose state grid the LIF train gives a QAT model never fires on included),
    or an eval_symbols evaluate_ber refuses at the largest n_tap."""

    n_taps: tuple = tuple(range(3, 42, 2))
    hidden: tuple = tuple(range(1, 81))
    steps: tuple = tuple(range(1, 11))
    bits: tuple = (None,)
    scale: TrialScale = field(default_factory=TrialScale)

    def __post_init__(self):
        if not (self.n_taps and self.hidden and self.steps and self.bits):
            raise ValueError("DseSpace ranges must be nonempty")
        for axis, values in (("n_tap", self.n_taps), ("hidden", self.hidden),
                             ("steps", self.steps)):
            for value in values:
                TopologyConfig(**{axis: value})
        check_eval_symbols(self.scale.eval_symbols, TopologyConfig(n_tap=max(self.n_taps)).history)
        for b in self.bits:
            if b is not None:
                qat = QatConfig(weight_bits=b, state_bits=b)
                FxpFormats(weight_bits=b, state_bits=b)
                FxpLifSpec.derive(default_lif(qat), state_format(b))

    def enumerate(self) -> list:
        """Lexicographic (n_tap, hidden, steps, bits) order."""
        return [
            {"n_tap": n, "hidden": h, "steps": t, "bits": b}
            for n in self.n_taps for h in self.hidden
            for t in self.steps for b in self.bits
        ]


@dataclass
class TrialResult:
    """One trial and its line in a results file, which holds every field."""

    n_tap: int
    hidden: int
    steps: int
    bits: int | None
    mac: int
    ber: dict | None  # snr_db -> ber; None for failed trials
    seed: int
    wall_time_s: float
    status: str = "ok"
    error: str | None = None

    # A configuration's identity, read from a trial or from a configuration
    # dict; vars(trial) would give every loaded trial a __dict__ to keep.
    _key_fields = ("n_tap", "hidden", "steps", "bits")
    _trial_key = operator.attrgetter(*_key_fields)
    _config_key = operator.itemgetter(*_key_fields)

    def config_key(self) -> tuple:
        return self._trial_key(self)

    def to_json(self) -> str:
        # json writes the float BER keys as "17.0"
        return json.dumps({**vars(self), "wall_time_s": round(self.wall_time_s, 3)})

    @classmethod
    def from_json(cls, line: str) -> "TrialResult":
        rec = json.loads(line)
        if rec.get("ber") is not None:
            rec["ber"] = {float(k): v for k, v in rec["ber"].items()}
        return cls(**rec)


def trial_seed(master_seed: int, config: dict) -> int:
    label = "trial:" + json.dumps(config, sort_keys=True)
    return derive_seed(master_seed, label)


def run_trial(config: dict, channel_cfg: ChannelConfig, scale: TrialScale,
              seed: int) -> TrialResult:
    """Train one configuration at the training SNR and sweep its BER curve.

    A diverging training run, or a trained model that convert refuses at the
    trial's bit width, marks the trial failed (no BER map, the error kept)
    and the exploration continues.
    """
    topo = TopologyConfig(n_tap=config["n_tap"], hidden=config["hidden"],
                          steps=config["steps"])
    bits = config.get("bits")
    batches = scale.train_symbols // scale.batch_size
    train_cfg = TrainConfig(
        learning_rate=scale.learning_rate, epochs=1, batches_per_epoch=batches,
        batch_size=scale.batch_size, seed=seed,
        qat=None if bits is None else QatConfig(weight_bits=bits, state_bits=bits),
    )
    start = time.perf_counter()
    ber, status, error = None, "ok", None
    try:
        model, _ = train(channel_cfg, topo, train_cfg)
        if bits is not None:
            model = convert(model, FxpFormats(weight_bits=bits, state_bits=bits))
        curve = evaluate_ber(model, channel_cfg, scale.snrs_db,
                             scale.eval_symbols, seed=seed)
        ber = {float(p.snr_db): p.ber for p in curve.points}
    except (TrainingDiverged, ConversionError) as exc:
        status, error = "failed", str(exc)
    return TrialResult(
        n_tap=topo.n_tap, hidden=topo.hidden, steps=topo.steps, bits=bits,
        mac=topo.macs_per_symbol(), ber=ber, seed=seed,
        wall_time_s=time.perf_counter() - start, status=status, error=error,
    )


def load_results(path) -> list:
    """The file's trials, [] if it is missing; ValueError names a line that is not one."""
    trials = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        trials.append(TrialResult.from_json(line))
                    except (ValueError, TypeError, AttributeError) as exc:
                        raise ValueError(f"{path}:{lineno}: not a trial record: {exc}") from exc
    except FileNotFoundError:
        pass
    return trials


def search(space: DseSpace, channel_cfg: ChannelConfig, strategy: str, budget: int,
           seed: int, results_path, trial_runner=run_trial) -> list:
    """Run `budget` trials; returns all results including resumed ones.

    Grid takes the lexicographic prefix of the space; random samples without
    replacement. Configurations already in the results_path file are skipped;
    the file is opened once, in append mode, and each new record is written
    and flushed as its trial finishes, so a resume (or a trial runner reading
    the file) sees every finished trial and a crash loses only the running one.
    ValueError unless seed is an integer >= 0 and budget one in [1, space size].
    """
    seed = check_int("seed", seed, 0)
    configs = space.enumerate()
    budget = check_int("budget", budget, 1, len(configs))
    if strategy == "grid":
        chosen = configs[:budget]
    elif strategy == "random":
        order = np.random.default_rng(seed).permutation(len(configs))[:budget]
        chosen = [configs[int(k)] for k in order]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    results = load_results(results_path)
    done_keys = {t.config_key() for t in results}
    with open(results_path, "a") as fh:
        for config in chosen:
            key = TrialResult._config_key(config)
            if key in done_keys:
                continue
            trial = trial_runner(config, channel_cfg, space.scale,
                                 trial_seed(seed, config))
            results.append(trial)
            done_keys.add(key)
            fh.write(trial.to_json() + "\n")
            fh.flush()  # a resume, or a crash in the next trial, finds it
    return results


def pareto_front(trials, snr_db: float) -> list:
    """Non-dominated subset of the successful (status "ok") trials under
    minimize(mac, ber at snr_db), mac-ascending.

    Failed trials, which have no BER, are left out; equal (mac, ber) ties are
    all kept. ValueError when no trial succeeded or a successful one lacks
    the SNR point.
    """
    pts = []
    for t in trials:
        if t.status != "ok":
            continue
        if t.ber is None or float(snr_db) not in t.ber:
            raise ValueError(
                f"trial {t.config_key()} has no BER at SNR {snr_db}"
            )
        pts.append((t.mac, t.ber[float(snr_db)], t))
    if not pts:
        raise ValueError("pareto_front needs at least one successful trial")
    pts.sort(key=lambda p: (p[0], p[1]))  # stable: equal points keep input order
    front = []
    best_ber = float("inf")
    for _, group in itertools.groupby(pts, key=lambda p: p[0]):
        group = list(group)
        group_best = group[0][1]  # BER-ascending within a MAC group
        if group_best < best_ber:
            front.extend(t for _, ber, t in group if ber == group_best)
            best_ber = group_best
    return front
