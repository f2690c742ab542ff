"""Bit-accurate integer inference engine.

Mirrors the hardware arithmetic decisions: power-of-two per-tensor scales,
shift-based LIF decay (alpha = 2^-k), ternary inputs so multiplies reduce to
add/subtract/skip, and 32-bit saturating accumulators. All rounding is pinned:
decay shifts are arithmetic shifts (floor, also for negatives), the one drive
requantization onto the state grid rounds half-up, and offline conversion
rounds to nearest-even. Identical inputs give identical outputs on any
platform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .equalizer import (
    EncoderConfig, EqualizerModel, TopologyConfig, load_container, save_container,
)
from .lif import LifParams
from .quant import FxpFormat, pow2_scale, state_format

FXP_FORMAT = "snndfe-fxp-model"
FXP_VERSION = 1


class ConversionError(ValueError):
    """Float model cannot be represented in the requested formats."""


@dataclass(frozen=True)
class FxpFormats:
    """Bit widths for a conversion: weights/biases, LIF state, accumulators."""

    weight_bits: int = 8
    state_bits: int = 8
    acc_bits: int = 32

    def __post_init__(self):
        if self.weight_bits < 2 or self.state_bits < 4:
            raise ValueError("weight_bits >= 2 and state_bits >= 4 required")
        if not 16 <= self.acc_bits <= 62:
            raise ValueError("acc_bits must be in [16, 62] (int64 arithmetic)")


def _sat(x: np.ndarray, lo: int, hi: int, stats: dict | None,
         key: str = "saturations") -> np.ndarray:
    # the ufuncs directly: np.clip's Python wrapper rebuilds the int64 limits
    # on every call, which cost the closed loop about half of fxp_forward
    clipped = np.minimum(np.maximum(x, lo), hi)
    if stats is not None:
        stats[key] = stats.get(key, 0) + int(np.count_nonzero(clipped != x))
    return clipped


@dataclass
class FxpModel:
    """Integer twin of an EqualizerModel.

    Weight tensors are int64 arrays on per-tensor power-of-two grids
    (value = int * 2^-frac); the LIF state lives on the state-format grid with
    decay shifts k_v/k_i. The export carries everything a hardware
    implementation needs to reproduce the arithmetic bit-for-bit.
    """

    config: TopologyConfig
    encoder: EncoderConfig
    lif: LifParams
    ints: dict
    fracs: dict
    state_fmt: FxpFormat
    k_v: int
    k_i: int
    v_th_int: int
    v_r_int: int
    weight_bits: int
    acc_bits: int = 32

    @property
    def acc_min(self) -> int:
        return -(2 ** (self.acc_bits - 1))

    @property
    def acc_max(self) -> int:
        return 2 ** (self.acc_bits - 1) - 1

    def dequant(self, name: str) -> np.ndarray:
        return self.ints[name].astype(float) * 2.0 ** (-self.fracs[name])

    def make_decider(self):
        """Bind a per-window decision closure: the argmax of fxp_forward's logits
        for one window, ties to the lowest class."""
        def decide(encoded: np.ndarray, stats=None) -> int:
            return int(np.argmax(fxp_forward(encoded[None], self, stats)[0]))

        return decide


def _fit_frac(arr: np.ndarray, bits: int) -> int:
    """Fractional bits of the finest power-of-two grid that holds max|arr|."""
    max_abs = float(np.max(np.abs(arr))) if arr.size else 0.0
    scale = pow2_scale(max_abs, bits)
    frac = -int(round(math.log2(scale)))
    return frac


def _accumulator_fracs(fracs: dict) -> tuple:
    """Fractional bits of the fc0, hidden-drive and logit accumulators, each the
    finest grid among the tensors it sums."""
    f_a = max(fracs["w_fc0"], fracs["b_fc0"])
    f_h = max(fracs["w_fc1"] + f_a, fracs["w_fc2"], fracs["b_fc1"])
    f_z = max(fracs["w_fc3"], fracs["b_fc3"])
    return f_a, f_h, f_z


def _worst_case_accumulators(ints: dict, fracs: dict, steps: int) -> dict:
    """Largest magnitude each accumulator of fxp_forward can reach, as an exact int.

    Row sums of |w| times the largest input (1 for the ternary window and the
    spikes, the fc0 bound for fc1), plus the largest |bias|, each after its
    alignment shift; the logits add that over all steps.
    """
    f_a, f_h, f_z = _accumulator_fracs(fracs)

    def row_sum(name):
        return int(np.abs(ints[name]).sum(axis=1).max())

    def aligned_bias(name, frac):
        return int(np.abs(ints[name]).max()) << (frac - fracs[name])

    fc0 = (row_sum("w_fc0") << (f_a - fracs["w_fc0"])) + aligned_bias("b_fc0", f_a)
    hidden = ((row_sum("w_fc1") * fc0) << (f_h - fracs["w_fc1"] - f_a)) \
        + (row_sum("w_fc2") << (f_h - fracs["w_fc2"])) + aligned_bias("b_fc1", f_h)
    logits = steps * ((row_sum("w_fc3") << (f_z - fracs["w_fc3"])) + aligned_bias("b_fc3", f_z))
    return {"fc0": fc0, "hidden drive": hidden, "logits": logits}


def _shift_exponent(alpha: float, name: str) -> int:
    k = -math.log2(alpha)
    if abs(k - round(k)) > 1e-12 or round(k) < 1:
        raise ConversionError(
            f"{name}={alpha} is not a power-of-two decay; train with shift-friendly "
            "LIF constants (e.g. LifParams.shift_friendly())"
        )
    return int(round(k))


def convert(model: EqualizerModel, formats: FxpFormats) -> FxpModel:
    """Round the float model to nearest-even onto per-tensor power-of-two grids.

    The fitted grids match the QAT fake-quantization grids, so a model trained
    with matching bit widths converts exactly (zero error); a warning is issued
    when the QAT setup does not match. Tensors whose pinned grid cannot hold a
    value raise ConversionError naming the offenders, and so does a model whose
    worst-case aligned accumulator can exceed acc_bits (see
    _worst_case_accumulators), so a converted model neither saturates an
    accumulator nor wraps an int64 alignment shift.
    """
    if model.qat is None:
        warnings.warn("converting a model that was not QAT-trained", stacklevel=2)
    elif model.qat.weight_bits != formats.weight_bits or model.qat.state_bits != formats.state_bits:
        warnings.warn(
            f"model QAT bits {model.qat} do not match conversion formats {formats}",
            stacklevel=2,
        )
    if model.lif.v_leak != 0.0:
        raise ConversionError("integer engine assumes v_leak = 0")
    k_v = _shift_exponent(model.lif.alpha_v, "alpha_v")
    k_i = _shift_exponent(model.lif.alpha_i, "alpha_i")

    ints, fracs, overflowed = {}, {}, []
    qmin, qmax = -(2 ** (formats.weight_bits - 1)), 2 ** (formats.weight_bits - 1) - 1
    for name, arr in model.parameters().items():
        frac = _fit_frac(arr, formats.weight_bits)
        q = np.rint(arr * 2.0 ** frac).astype(np.int64)
        if q.min(initial=0) < qmin or q.max(initial=0) > qmax:
            overflowed.append(name)
        ints[name] = np.clip(q, qmin, qmax)
        fracs[name] = frac
    if overflowed:
        raise ConversionError(f"tensors exceed the representable range: {overflowed}")
    worst = _worst_case_accumulators(ints, fracs, model.config.steps)
    too_wide = [f"{name} 2^{math.log2(peak):.1f}" for name, peak in worst.items()
                if peak > 2 ** (formats.acc_bits - 1) - 1]
    if too_wide:
        raise ConversionError(
            f"worst-case accumulators exceed {formats.acc_bits} bits: {', '.join(too_wide)}"
        )

    fmt = state_format(formats.state_bits)
    v_th_int = int(round(model.lif.v_th * 2.0 ** fmt.frac_bits))
    v_r_int = int(round(model.lif.v_r * 2.0 ** fmt.frac_bits))
    if not fmt.min_int <= v_th_int <= fmt.max_int:
        raise ConversionError("v_th does not fit the state format")
    return FxpModel(
        config=model.config, encoder=model.encoder, lif=model.lif,
        ints=ints, fracs=fracs, state_fmt=fmt, k_v=k_v, k_i=k_i,
        v_th_int=v_th_int, v_r_int=v_r_int,
        weight_bits=formats.weight_bits, acc_bits=formats.acc_bits,
    )


@dataclass(frozen=True)
class FxpLifSpec:
    """Shift amounts, thresholds and clamp range of the integer LIF step."""

    k_v: int
    k_i: int
    v_th_int: int
    v_r_int: int
    state_min: int
    state_max: int


def fxp_lif_step(v: np.ndarray, i: np.ndarray, drive: np.ndarray, spec: FxpLifSpec,
                 stats: dict | None = None):
    """One integer LIF step with shift decays.

    i' = i - (i >> k_i) + drive; v' = v - (v >> k_v) + (i' >> k_v); spike on
    v' >= v_th_int, hard reset. Shifts are arithmetic (floor, also for
    negatives). States clamp to the state format on the way out; those clips
    are quantization semantics (mirrored by QAT), tracked under "state_clips",
    not accumulator saturation.
    """
    i_new = _sat(i - (i >> spec.k_i) + drive,
                 spec.state_min, spec.state_max, stats, key="state_clips")
    v_pre = _sat(v - (v >> spec.k_v) + (i_new >> spec.k_v),
                 spec.state_min, spec.state_max, stats, key="state_clips")
    spikes = v_pre >= spec.v_th_int
    v_new = np.where(spikes, spec.v_r_int, v_pre)
    return v_new, i_new, spikes.astype(np.int64)


def _rshift_round_half_up(x: np.ndarray, shift: int) -> np.ndarray:
    """Requantize down by 2^shift, rounding halves toward +inf."""
    if shift <= 0:
        return x << (-shift)
    return (x + (1 << (shift - 1))) >> shift


def fxp_forward(windows, model: FxpModel, stats: dict | None = None) -> np.ndarray:
    """Integer-exact T-step forward pass over a batch of ternary windows (B, n_input).

    The dataflow mirrors the float forward: fc0 sees the windows at the first
    step only; the hidden drive is requantized onto the state grid (round
    half-up) before entering the current equation; fc3 readouts accumulate over
    steps. Returns the int64 logits (B, n_classes) on the fc3 grid. With
    `stats`, accumulator saturations and state clips are added to its
    "saturations" and "state_clips" counts.
    """
    windows = np.asarray(windows)
    if windows.ndim != 2 or windows.shape[1] != model.config.n_input:
        raise ValueError(f"windows have shape {windows.shape}, "
                         f"expected (B, {model.config.n_input})")
    enc = windows.astype(np.int64)
    if (np.abs(enc) > 1).any() or (enc != windows).any():
        raise ValueError("fxp_forward requires ternary {-1, 0, 1} windows")

    w = model.ints
    f = model.fracs
    fmt = model.state_fmt
    spec = FxpLifSpec(model.k_v, model.k_i, model.v_th_int, model.v_r_int,
                      fmt.min_int, fmt.max_int)
    acc_lo, acc_hi = model.acc_min, model.acc_max

    f_a, f_h, f_z = _accumulator_fracs(f)

    # NB: << binds looser than + in Python; every shift is parenthesized
    a_bias = w["b_fc0"] << (f_a - f["b_fc0"])
    a_window = _sat(((enc @ w["w_fc0"].T) << (f_a - f["w_fc0"])) + a_bias,
                    acc_lo, acc_hi, stats)
    b1_aligned = w["b_fc1"] << (f_h - f["b_fc1"])
    z_bias = w["b_fc3"] << (f_z - f["b_fc3"])
    # the fc1 drive of steps t >= 1 sees only the fc0 bias: hoisted, exact
    # since int64 + and << wrap mod 2^64 in any order
    h_first = ((a_window @ w["w_fc1"].T) << (f_h - f["w_fc1"] - f_a)) + b1_aligned
    h_rest = ((a_bias @ w["w_fc1"].T) << (f_h - f["w_fc1"] - f_a)) + b1_aligned

    shape = (enc.shape[0], model.config.hidden)
    v = np.zeros(shape, dtype=np.int64)
    i = np.zeros(shape, dtype=np.int64)
    spikes = np.zeros(shape, dtype=np.int64)
    logits = np.zeros((enc.shape[0], model.config.n_classes), dtype=np.int64)
    for t in range(model.config.steps):
        h = _sat((h_first if t == 0 else h_rest)
                 + ((spikes @ w["w_fc2"].T) << (f_h - f["w_fc2"])),
                 acc_lo, acc_hi, stats)
        drive = _sat(_rshift_round_half_up(h, f_h - fmt.frac_bits),
                     spec.state_min, spec.state_max, stats, key="state_clips")
        v, i, spikes = fxp_lif_step(v, i, drive, spec, stats)
        logits = _sat(
            logits + ((spikes @ w["w_fc3"].T) << (f_z - f["w_fc3"])) + z_bias,
            acc_lo, acc_hi, stats,
        )
    return logits


_FXP_FIELDS = ("fracs", "state_bits", "state_frac_bits", "k_v", "k_i",
               "v_th_int", "v_r_int", "weight_bits", "acc_bits")


def save_fxp_model(path, model: FxpModel) -> None:
    """Integer model container: json header plus raw int64 tensors."""
    save_container(
        path, FXP_FORMAT, FXP_VERSION, model, model.ints,
        fracs=model.fracs,
        state_bits=model.state_fmt.total_bits, state_frac_bits=model.state_fmt.frac_bits,
        k_v=model.k_v, k_i=model.k_i, v_th_int=model.v_th_int, v_r_int=model.v_r_int,
        weight_bits=model.weight_bits, acc_bits=model.acc_bits,
    )


def load_fxp_model(path) -> FxpModel:
    header, ints, common = load_container(path, FXP_FORMAT, FXP_VERSION, _FXP_FIELDS)
    return FxpModel(
        **common,
        ints=ints,
        fracs={k: int(v) for k, v in header["fracs"].items()},
        state_fmt=FxpFormat(header["state_bits"], header["state_frac_bits"]),
        k_v=header["k_v"], k_i=header["k_i"],
        v_th_int=header["v_th_int"], v_r_int=header["v_r_int"],
        weight_bits=header["weight_bits"], acc_bits=header["acc_bits"],
    )
