"""The spiking decision-feedback equalizer.

Per decided symbol the network runs an episodic T-step schedule: the encoded
window drives the linear input layer (fc0) at the first step only, zeros
afterwards; fc1 feeds the LIF block, fc2 carries its recurrence, and the fc3
readout is accumulated over all steps before the argmax decision. Decided
classes are fed back into the next windows (true DFE); teacher_forced_windows
feeds back given classes instead: the true ones for training and the genie
receiver, a finished loop's own decisions for harness.evaluate_ber's clip count.

The closed loop runs as a fixed-point iteration: batched passes over the
undecided symbols, each keeping the decisions the per-symbol DFE makes (see
equalize_stream).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import N_CLASSES, check_classes, check_int, check_pam4
from .lif import LifParams, lif_step
from .quant import QatConfig, fake_quantize, fake_quantize_with_mask, state_format

RX_LEVELS = 8  # received samples are one-hot coded over 8 amplitude bins

MODEL_FORMAT = "snndfe-model"
MODEL_VERSION = 1

# Most windows one closed-loop pass decides (see equalize_stream).
_PASS_ROWS = 64


@dataclass(frozen=True)
class TopologyConfig:
    """Equalizer dimensions, each stored as a plain int (channel.check_int):
    ValueError unless n_tap is odd and >= 1, bits_per_symbol 2 (PAM-4), hidden
    in [1, 1024] and steps >= 1."""

    n_tap: int = 17
    bits_per_symbol: int = 2
    hidden: int = 80
    steps: int = 10

    def __post_init__(self):
        for name, lo, hi in (("n_tap", 1, None), ("hidden", 1, 1024), ("steps", 1, None)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo, hi))
        if self.n_tap % 2 == 0:
            raise ValueError(f"n_tap must be odd, got {self.n_tap}")
        object.__setattr__(self, "bits_per_symbol", check_pam4(self.bits_per_symbol))

    @property
    def n_input(self) -> int:
        """Input width: 8*(history+1) received bins and 4*history fed-back classes."""
        return RX_LEVELS * (self.history + 1) + N_CLASSES * self.history

    @property
    def history(self) -> int:
        """Number of past received samples / fed-back decisions in the window."""
        return self.n_tap // 2

    def macs_per_symbol(self) -> int:
        """Multiply-accumulates per equalized symbol: fc0 to fc3 at every step."""
        return self.hidden * (self.n_input + 2 * self.hidden + N_CLASSES) * self.steps

    def param_shapes(self) -> dict:
        """Shape of each model parameter, in EqualizerModel.PARAM_NAMES order."""
        n_i, n_h, n_c = self.n_input, self.hidden, N_CLASSES
        return {"w_fc0": (n_h, n_i), "b_fc0": (n_h,), "w_fc1": (n_h, n_h), "b_fc1": (n_h,),
                "w_fc2": (n_h, n_h), "w_fc3": (n_c, n_h), "b_fc3": (n_c,)}


@dataclass(frozen=True)
class EncoderConfig:
    """Min-max calibration of the received amplitude binning, its ends stored as
    plain floats; ValueError unless rx_min < rx_max, both finite, with a span
    rx_max - rx_min float64 holds."""

    rx_min: float
    rx_max: float

    def __post_init__(self):
        # + 0.0 refuses a str (TypeError); Python floats give no overflow warning
        lo, hi = float(self.rx_min + 0.0), float(self.rx_max + 0.0)
        if not (lo < hi and hi - lo < math.inf):  # NaN and infinite ends fail it too
            raise ValueError(f"encoder ends must be finite with rx_min < rx_max and a finite "
                             f"span, got [{self.rx_min}, {self.rx_max}]")
        object.__setattr__(self, "rx_min", lo)
        object.__setattr__(self, "rx_max", hi)

    def bin_indices(self, samples) -> np.ndarray:
        """Uniform 8-level quantizer, clamping out-of-range values (+-inf too)
        to the edge bins; ValueError for a NaN sample."""
        samples = np.asarray(samples, dtype=float)
        if np.isnan(samples).any():
            raise ValueError("received samples must not be NaN")
        lo, hi = self.rx_min, self.rx_max
        # clamp first: far samples over a tiny span would overflow to inf
        t = (np.clip(samples, lo, hi) - lo) / (hi - lo)
        return np.clip(np.floor(t * RX_LEVELS).astype(np.int64), 0, RX_LEVELS - 1)


@functools.cache
def _block_starts(history: int) -> np.ndarray:
    """First column of each one-hot block of a window (layout: one_hot_windows)."""
    base = history * RX_LEVELS
    starts = np.concatenate([RX_LEVELS * np.arange(history),
                             base + N_CLASSES * np.arange(history + 1)])
    starts.flags.writeable = False  # shared by every caller through the cache
    return starts


def one_hot_windows(bins: np.ndarray, decisions: np.ndarray) -> np.ndarray:
    """One-hot windows from received bins (B, history+1) and decisions (B, history).

    Layout: `history` past-received blocks of 8 (oldest first), `history`
    decision blocks of 4 (oldest first), then the current-received block of
    8. Exactly one entry per block is nonzero.
    """
    batch, history = decisions.shape
    columns = np.concatenate([bins[:, :history], decisions, bins[:, history:]], axis=1)
    columns += _block_starts(history)
    out = np.zeros((batch, (RX_LEVELS + N_CLASSES) * history + RX_LEVELS))
    out[np.arange(batch)[:, None], columns] = 1.0
    return out


def encode_window(received, decisions, encoder: EncoderConfig) -> np.ndarray:
    """One-hot encode a window of history+1 received samples and history decisions
    (layout: one_hot_windows); the per-window reference for the windows that
    _window_builder builds from one binning. ValueError for a decision outside
    [0, N_CLASSES), which would set a column of a neighbouring block."""
    received = np.asarray(received, dtype=float)
    decisions = check_classes("decisions", decisions)
    if received.size != decisions.size + 1:
        raise ValueError("received window must hold history+1 samples")
    return one_hot_windows(encoder.bin_indices(received)[None], decisions[None])[0]


def _window_builder(bins: np.ndarray, fed: np.ndarray, config: TopologyConfig):
    """windows(lo, hi): the one-hot windows of symbols lo..hi-1 of a stream from
    its received bins and the classes in `fed` when called (views: they see
    every write to fed). Window k holds the samples k-history..k and the
    classes k-history..k-1. ValueError for a stream shorter than history+1."""
    history = config.history
    if bins.size < history + 1:
        raise ValueError(f"stream of {bins.size} symbols is shorter than history+1 = "
                         f"{history + 1}")
    received = sliding_window_view(bins, history + 1)
    fed_back = sliding_window_view(fed, history)

    def windows(lo, hi):
        rows = slice(lo - history, hi - history)
        return one_hot_windows(received[rows], fed_back[rows])

    return windows


def teacher_forced_windows(y, classes, encoder: EncoderConfig, config: TopologyConfig):
    """(windows, labels) of symbols history..N-1 with the true classes fed back,
    warm-up included: the windows of a closed loop that decides every symbol
    right (teacher forcing; the genie receiver). ValueError for a stream
    shorter than history+1, or classes not aligned with y or outside [0, N_CLASSES).
    """
    y = np.asarray(y, dtype=float)
    classes = check_classes("classes", classes)
    if classes.shape != y.shape:
        raise ValueError("classes must align with y")
    windows = _window_builder(encoder.bin_indices(y), classes, config)
    return windows(config.history, y.size), classes[config.history:]


@dataclass
class EqualizerModel:
    """Topology, LIF constants, encoder calibration and the four FC layers."""

    config: TopologyConfig
    lif: LifParams
    encoder: EncoderConfig
    w_fc0: np.ndarray
    b_fc0: np.ndarray
    w_fc1: np.ndarray
    b_fc1: np.ndarray
    w_fc2: np.ndarray  # recurrent, no bias
    w_fc3: np.ndarray
    b_fc3: np.ndarray
    qat: QatConfig | None = None

    PARAM_NAMES = ("w_fc0", "b_fc0", "w_fc1", "b_fc1", "w_fc2", "w_fc3", "b_fc3")

    def __post_init__(self):
        for name, shape in self.config.param_shapes().items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")

    @classmethod
    def initialize(cls, config: TopologyConfig, lif: LifParams, encoder: EncoderConfig,
                   rng: np.random.Generator, qat: QatConfig | None = None) -> "EqualizerModel":
        """Fresh model with uniform +/-1/sqrt(fan_in) weights and biases, drawn in
        PARAM_NAMES order; a bias has the fan-in of its layer's weight."""
        shapes = config.param_shapes()
        params = {}
        for name, shape in shapes.items():
            bound = 1.0 / np.sqrt(shapes["w" + name[1:]][1])
            params[name] = rng.uniform(-bound, bound, size=shape)
        return cls(config=config, lif=lif, encoder=encoder, qat=qat, **params)

    def parameters(self) -> dict:
        return {name: getattr(self, name) for name in self.PARAM_NAMES}

    def effective_weights(self) -> dict:
        """Weights as the forward pass sees them (fake-quantized under QAT)."""
        params = self.parameters()
        if self.qat is None:
            return params
        return {k: fake_quantize(v, self.qat.weight_bits) for k, v in params.items()}

    def make_decider(self):
        """Bind a batched decision closure, decide(windows (B, n_input), stats=None)
        -> classes (B,): the argmax of forward's logits, ties to the lowest class.

        The effective weights are prepared once per decider (one per stream),
        copied column-major so that the transposes forward multiplies by are
        row-major. BLAS may then sum a float logit in another order and move
        its last bits; QAT-float terms are short dyadic numbers, summed
        exactly in any order while every sum fits 53 bits. `stats` is the
        integer engine's clip counter; the float and QAT-float deciders
        ignore it."""
        eff = {k: np.asfortranarray(v) for k, v in self.effective_weights().items()}
        cfg, lif, qat = self.config, self.lif, self.qat

        def decide(windows: np.ndarray, stats=None) -> np.ndarray:
            logits, _ = forward(windows, eff, cfg, lif, qat)
            return np.argmax(logits, axis=1)

        return decide


class Workspace:
    """Named float arrays kept from call to call, so that a training loop
    passing one to every loss_and_grads reuses its memory instead of faulting
    it in again. An array is kept per key and replaced when a call asks for
    another shape. A call overwrites what the last call returned in it (the
    tape); forward's logits are never in it."""

    def __init__(self):
        self._arrays = {}

    def __call__(self, key, shape: tuple) -> np.ndarray:
        arr = self._arrays.get(key)
        if arr is None or arr.shape != shape:
            arr = self._arrays[key] = np.empty(shape)
        return arr


def forward(windows, weights: dict, config: TopologyConfig, lif: LifParams,
            qat: QatConfig | None = None, keep: bool = False,
            workspace: Workspace | None = None):
    """The T-step forward pass over a batch of encoded windows (B, n_input).

    Step 1 drives fc0 with the windows, later steps with zeros, so that fc0
    then outputs its bias. The hidden drive per step is fc1(fc0 output) + fc2(previous
    spikes) + bias; fc3 readouts are summed over steps. With `qat` set, the
    drive and the LIF state are fake-quantized onto the state grid each step.
    Returns the logits (B, N_CLASSES) and, when `keep` is set, a tape of what
    the backward pass reads, else None: the fc0 output "a0" and per-step lists
    of spikes "s" and pre-reset voltages "v_pre", and under QAT the bool
    straight-through masks of the drive, current and voltage ("h", "i", "v").
    All of it runs in place on arrays from `workspace` (else fresh ones),
    never on the windows or weights.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2 or windows.shape[1] != config.n_input:
        raise ValueError(f"windows have shape {windows.shape}, expected (B, {config.n_input})")
    new = Workspace() if workspace is None else workspace
    shape = (windows.shape[0], config.hidden)
    w1, b1, w2 = weights["w_fc1"], weights["b_fc1"], weights["w_fc2"]
    w3, b3 = weights["w_fc3"], weights["b_fc3"]
    a0 = np.matmul(windows, weights["w_fc0"].T, out=new("a0", shape))
    a0 += weights["b_fc0"]
    a_rest = weights["b_fc0"] @ w1.T + b1  # fc1 part of the drive at steps t >= 1
    tape = {"a0": a0, "s": [], "v_pre": [], "h": [], "i": [], "v": []} if keep else None
    quantize = None
    if qat is not None:
        grid = state_format(qat.state_bits)

        def quantize(x, name):  # x is forward's own array: rounded in place
            if tape is None:
                return fake_quantize(x, grid.total_bits, grid.scale, out=x)
            q, mask = fake_quantize_with_mask(x, grid.total_bits, grid.scale, out=x)
            tape[name].append(mask)
            return q

    v, i, h = new("v", shape), new("i", shape), new("h", shape)
    v.fill(0.0)
    i.fill(0.0)
    s = None
    logits = np.zeros((windows.shape[0], N_CLASSES))
    for t in range(config.steps):
        # no spikes before the first step: its drive skips fc2
        np.matmul(a0 if t == 0 else s, (w1 if t == 0 else w2).T, out=h)
        h += b1 if t == 0 else a_rest
        if quantize is not None:
            h = quantize(h, "h")
        k = t if keep else 0  # without a tape, each step overwrites the last one's
        out = (v, i, new(("s", k), shape), new(("v_pre", k), shape))
        v, i, s, v_pre = lif_step(v, i, h, lif, quantize, out=out)
        logits += s @ w3.T + b3
        if tape is not None:
            tape["s"].append(s)
            tape["v_pre"].append(v_pre)
    return logits, tape


def equalize_stream(y, model) -> np.ndarray:
    """Decision-feedback equalize a symbol-rate stream; returns the decisions for
    symbols history..N-1.

    The first `history` symbols have no fully-populated window: they are never
    decided, stand in the feedback window as class 0, and are excluded from
    error accounting. Each decision is fed back into the next windows.

    The loop runs passes over the undecided symbols: a pass builds the
    windows of the next ones, feeding back the current guesses, and decides
    them in one call of `model.make_decider()`. The first guess for a symbol
    is its received bin mapped onto the classes in amplitude order (bin // 2
    for PAM-4); later ones are the last pass's decisions. The pass's first
    decision sees only final decisions, so it is final; each later one is
    final when every guess before it in the pass was confirmed. The pass
    keeps its decisions up to and including the first that changed its
    guess, and the next pass starts after it, so the output is the
    per-symbol DFE's in at most one pass per symbol, whatever the guesses:
    they only set the number of passes.

    Rows past the kept ones pay off when the iteration settles ahead of the
    first undecided symbol, as on a trained model (about 7 passes per 52
    symbols); on a chaotic model each kept decision flips the next guess, a
    pass keeps about one symbol and its other rows are wasted. So a pass
    covers 2*k^2 symbols, k the running mean of the decisions kept per pass,
    up to _PASS_ROWS: the whole cap from k = 5.7 on, 2 or 3 symbols at
    k = 1.1. On untrained chaotic models at 17 taps, hidden 72, T 5 (2,000
    symbols, one core) the loop then takes 0.6 to 0.7x the per-symbol loop's
    time, against up to 3.7x with every pass at the cap.
    """
    cfg = model.config
    history, bins = cfg.history, model.encoder.bin_indices(y)
    n = bins.size
    fed = np.zeros(n, dtype=np.int64)  # the classes the windows see
    windows = _window_builder(bins, fed, cfg)
    # first guesses: each sample's bin onto the amplitude-ranked classes
    fed[history:] = bins[history:] * N_CLASSES // RX_LEVELS
    decide = model.make_decider()
    start, kept_mean = history, math.sqrt(_PASS_ROWS / 2)  # a first pass of the whole cap
    while start < n:
        stop = min(start + min(_PASS_ROWS, round(2 * kept_mean ** 2)), n)
        decided = decide(windows(start, stop))
        changed = np.flatnonzero(decided != fed[start:stop])
        fed[start:stop] = decided
        kept = int(changed[0]) + 1 if changed.size else stop - start
        start += kept
        kept_mean += (kept - kept_mean) / 8
    return fed[history:].copy()


_HEADER_KEYS = (*(f.name for f in fields(TopologyConfig)), "lif", "encoder")
# Header sections read into dataclasses with defaults: every field must be
# present, or a missing one would load as its default.
_HEADER_SECTIONS = {"lif": LifParams, "encoder": EncoderConfig, "qat": QatConfig}


def save_container(path, fmt: str, version: int, model, arrays: dict, **extra) -> None:
    """Write a versioned npz container: a JSON header (format, version, topology,
    LIF constants, encoder calibration, then `extra`) and row-major arrays."""
    header = {
        "format": fmt, "version": version, **asdict(model.config),
        "lif": asdict(model.lif), "encoder": asdict(model.encoder),
        **extra,
    }
    arrays = {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}
    np.savez(path, header=json.dumps(header), **arrays)


def load_container(path, fmt: str, version: int, extra_keys: tuple):
    """(header, arrays, common) of a container written by save_container.

    `arrays` holds the EqualizerModel.PARAM_NAMES tensors; `common` the
    config, lif and encoder keyword arguments both model classes take. Raises
    ValueError when the file is not a `fmt` container of `version` or lacks a
    header key (the shared ones, `extra_keys`, or a field of a section) or an
    array.
    """
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"])) if "header" in data.files else {}
        if header.get("format") != fmt:
            raise ValueError(f"not a {fmt} file")
        if header.get("version") != version:
            raise ValueError(f"unsupported {fmt} version {header.get('version')}")
        missing = [key for key in _HEADER_KEYS + extra_keys if key not in header]
        for key, section in _HEADER_SECTIONS.items():
            if isinstance(header.get(key), dict):
                missing += [f"{key}.{f.name}" for f in fields(section)
                            if f.name not in header[key]]
        missing += [name for name in EqualizerModel.PARAM_NAMES if name not in data.files]
        if missing:
            raise ValueError(f"{fmt} file lacks {missing}")
        arrays = {name: data[name] for name in EqualizerModel.PARAM_NAMES}
    common = {
        "config": TopologyConfig(**{f.name: header[f.name] for f in fields(TopologyConfig)}),
        "lif": LifParams(**header["lif"]),
        "encoder": EncoderConfig(**header["encoder"]),
    }
    return header, arrays, common


def save_model(path, model: EqualizerModel):
    """Write the versioned model container (json header + row-major weights)."""
    qat = model.qat
    save_container(path, MODEL_FORMAT, MODEL_VERSION, model, model.parameters(),
                   qat=None if qat is None else asdict(qat))


def load_model(path) -> EqualizerModel:
    header, arrays, common = load_container(path, MODEL_FORMAT, MODEL_VERSION, ("qat",))
    qat = header["qat"]
    return EqualizerModel(**common, qat=None if qat is None else QatConfig(**qat), **arrays)
