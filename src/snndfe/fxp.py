"""Bit-accurate integer inference engine.

Mirrors the hardware arithmetic decisions: power-of-two per-tensor scales,
shift-based LIF decay (alpha = 2^-k), ternary inputs so multiplies reduce to
add/subtract/skip, weights and LIF states of at most 16 bits with binary
points within a 32-bit word, and accumulators acc_bits wide (FxpFormats,
default 32, at most 53) that never saturate: a model whose worst case does
not fit them is refused. An FxpModel, like the datapath, is fixed once built
and checked once, at construction (_check_model). The integers are held in
float64 arrays: every state, drive and accumulator, and every shifted
partial sum, is an integer of magnitude at most 2^53, which float64 holds
exactly, so products run on float64 BLAS with their alignment shifts folded
into the weights and a shift is a power-of-two scale (then a floor); nothing
wraps. All rounding is pinned: decay shifts are arithmetic shifts (floor,
also for negatives), the one drive requantization onto the state grid rounds
half-up, and offline conversion rounds to nearest-even. Identical inputs give
identical outputs on any platform.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .channel import check_int
from .equalizer import (
    EncoderConfig, EqualizerModel, TopologyConfig, load_container, save_container,
)
from .lif import LifParams
from .quant import FxpFormat, pow2_exponent, state_format

FXP_FORMAT = "snndfe-fxp-model"
FXP_VERSION = 1


class ConversionError(ValueError):
    """Float model cannot be represented in the requested formats."""


@dataclass(frozen=True)
class FxpFormats:
    """Bit widths of an integer model: weights/biases, LIF state, accumulators.

    Plain ints (channel.check_int): weights of 2 to 16 bits and LIF states of
    4 (quant.state_format) to 16 bits, the widths of an FPGA datapath.
    fxp_forward holds every integer in float64, exact up to magnitude 2^53,
    and acc_bits <= 53 keeps every product exact: each shifted partial sum is
    bounded by its accumulator's worst case, which FxpModel's construction
    holds to acc_max <= 2^52 - 1.
    """

    weight_bits: int = 8
    state_bits: int = 8
    acc_bits: int = 32

    def __post_init__(self):
        for name, lo, hi in (("weight_bits", 2, 16), ("state_bits", 4, 16),
                             ("acc_bits", 16, 53)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo, hi))


def _shift_exponent(alpha: float, name: str) -> int:
    k = -math.log2(alpha)
    if abs(k - round(k)) > 1e-12 or round(k) < 1:
        raise ConversionError(
            f"{name}={alpha} is not a power-of-two decay; train with shift-friendly "
            "LIF constants (e.g. LifParams.shift_friendly())"
        )
    return int(round(k))


@dataclass(frozen=True)
class FxpLifSpec:
    """Shift amounts, thresholds and clamp range of the integer LIF step."""

    k_v: int
    k_i: int
    v_th_int: int
    v_r_int: int
    state_min: int
    state_max: int

    @classmethod
    def derive(cls, lif: LifParams, fmt: FxpFormat) -> "FxpLifSpec":
        """The integer constants of `lif` on the state grid `fmt`; ConversionError
        unless both decays are powers of two, v_th and v_r fit the grid and
        v_th is within reach: from 0, under the largest current, the voltage
        rises to (state_max >> k_v) << k_v and no higher."""
        k_v = _shift_exponent(lif.alpha_v, "alpha_v")
        k_i = _shift_exponent(lif.alpha_i, "alpha_i")
        levels = {}
        for name in ("v_th", "v_r"):
            scaled = getattr(lif, name) * 2.0 ** fmt.frac_bits
            if not (math.isfinite(scaled) and fmt.min_int <= round(scaled) <= fmt.max_int):
                raise ConversionError(f"{name}={getattr(lif, name)} does not fit the state format")
            levels[name] = round(scaled)
        reach = (fmt.max_int >> k_v) << k_v
        if levels["v_th"] > reach:
            raise ConversionError(f"v_th={lif.v_th} is {levels['v_th']} on the state grid, above "
                                  f"the voltage's reach {reach}: no neuron would fire")
        return cls(k_v, k_i, levels["v_th"], levels["v_r"], fmt.min_int, fmt.max_int)


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
    alignment shift; the logits add that over all steps. Every alignment
    shift is >= 0, so each bound also bounds every shifted partial sum of the
    products into its accumulator.
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


# Widest |frac| FxpModel accepts: every binary point lies within a 32-bit
# word. With a state grid of at most 13 fractional bits, the hidden drive's
# shift onto it lies in [-45, 52] (_check_model keeps it below acc_bits), and
# every exponent _Resolved folds into its weights is within +-80: exact.
_MAX_FRAC = 32


def _check_model(model: FxpModel) -> FxpLifSpec:
    """The model's integer LIF constants; ConversionError (a ValueError) unless
    `model.lif` passes FxpLifSpec.derive, the Mappings `ints` and `fracs` hold
    exactly the EqualizerModel parameters, each an int64 array of its shape on
    the weight_bits grid with an int frac within +-_MAX_FRAC, every
    worst-case accumulator fits acc_bits (ranges first: they keep its int64
    sums exact), and the hidden drive's shift onto the state grid is below
    acc_bits, past which every drive |h| < 2^(acc_bits-1) rounds to 0."""
    spec = FxpLifSpec.derive(model.lif, model.state_fmt)  # refuses constants it cannot run
    shapes = model.config.param_shapes()
    for label, table in (("ints", model.ints), ("fracs", model.fracs)):
        if not isinstance(table, Mapping) or table.keys() != shapes.keys():
            got = list(table) if isinstance(table, Mapping) else type(table).__name__
            raise ConversionError(f"{label} must hold exactly {list(shapes)}, got {got}")
    qmax, overflowed = 2 ** (model.formats.weight_bits - 1) - 1, []
    for name, shape in shapes.items():
        arr, frac = model.ints[name], model.fracs[name]
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.int64
                and arr.shape == shape and isinstance(frac, int)):
            raise ConversionError(
                f"{name} must be an int64 array of shape {shape} with an int frac, got "
                f"{getattr(arr, 'dtype', type(arr))} {np.shape(arr)}, frac {frac!r}")
        if abs(frac) > _MAX_FRAC:
            raise ConversionError(
                f"fracs[{name!r}] = {frac} is outside [-{_MAX_FRAC}, {_MAX_FRAC}]")
        if arr.min(initial=0) < -qmax - 1 or arr.max(initial=0) > qmax:
            overflowed.append(name)
    if overflowed:
        raise ConversionError(f"tensors exceed the representable range: {overflowed}")
    worst = _worst_case_accumulators(model.ints, model.fracs, model.config.steps)
    too_wide = [f"{name} 2^{math.log2(peak):.1f}" for name, peak in worst.items()
                if peak > model.acc_max]
    if too_wide:
        raise ConversionError(f"worst-case accumulators exceed {model.formats.acc_bits} "
                              f"bits: {', '.join(too_wide)}")
    shift = _accumulator_fracs(model.fracs)[1] - model.state_fmt.frac_bits
    if shift >= model.formats.acc_bits:
        raise ConversionError(f"the hidden drive's shift onto the state grid, {shift} bits, "
                              f"is not below acc_bits = {model.formats.acc_bits}")
    return spec


@dataclass(frozen=True, eq=False)  # == and hash by identity: generated ones compare arrays
class FxpModel:
    """Integer twin of an EqualizerModel, immutable and checked once, at
    construction (_check_model).

    Weight tensors are int64 arrays on per-tensor power-of-two grids
    (value = ints[name] * 2^-fracs[name]) within formats.weight_bits; the LIF
    state lives on the state grid (state_fmt). Construction keeps read-only
    copies, so `ints` and `fracs` are read-only mappings and the caller's
    arrays stay theirs, and derives the integer LIF constants (`lif_spec`)
    and fxp_forward's constants once. A model that passes never saturates an
    accumulator, and its products are exact in float64 (see FxpFormats). The
    export carries everything a hardware implementation needs to reproduce
    the arithmetic bit-for-bit.
    """

    config: TopologyConfig
    encoder: EncoderConfig
    lif: LifParams
    ints: Mapping
    fracs: Mapping
    formats: FxpFormats
    lif_spec: FxpLifSpec = field(init=False, repr=False)
    _resolved: _Resolved = field(init=False, repr=False)

    def __post_init__(self):
        spec = _check_model(self)
        ints = {name: arr.copy() for name, arr in self.ints.items()}
        for arr in ints.values():
            arr.flags.writeable = False
        object.__setattr__(self, "ints", MappingProxyType(ints))
        object.__setattr__(self, "fracs", MappingProxyType(dict(self.fracs)))
        object.__setattr__(self, "lif_spec", spec)
        object.__setattr__(self, "_resolved", _Resolved(self))

    @property
    def state_fmt(self) -> FxpFormat:
        return state_format(self.formats.state_bits)

    @property
    def acc_max(self) -> int:
        return 2 ** (self.formats.acc_bits - 1) - 1

    def make_decider(self):
        """Bind a batched decision closure, decide(windows (B, n_input), stats=None)
        -> classes (B,): the argmax of fxp_forward's logits, ties to the lowest
        class; `stats` counts state clips as fxp_forward does."""

        def decide(windows: np.ndarray, stats=None) -> np.ndarray:
            return np.argmax(fxp_forward(windows, self, stats), axis=1)

        return decide


def convert(model: EqualizerModel, formats: FxpFormats) -> FxpModel:
    """Round the float model to nearest-even onto per-tensor power-of-two grids.

    The fitted grids match the QAT fake-quantization grids, so a model trained
    with matching bit widths converts exactly (zero error); a warning is issued
    when the QAT setup does not match. Each fitted grid holds its tensor;
    FxpModel's checks raise ConversionError for LIF constants the integer
    engine cannot run, for a grid outside +-_MAX_FRAC fractional bits, for
    a worst-case accumulator wider than acc_bits and for a drive shift past it.
    """
    if model.qat is None:
        warnings.warn("converting a model that was not QAT-trained", stacklevel=2)
    elif model.qat.weight_bits != formats.weight_bits or model.qat.state_bits != formats.state_bits:
        warnings.warn(
            f"model QAT bits {model.qat} do not match conversion formats {formats}",
            stacklevel=2,
        )
    ints, fracs = {}, {}
    for name, arr in model.parameters().items():
        max_abs = float(np.max(np.abs(arr))) if arr.size else 0.0
        fracs[name] = -pow2_exponent(max_abs, formats.weight_bits)  # the QAT grid
        # ldexp: exact, and finite also for a frac _check_model goes on to refuse
        ints[name] = np.rint(np.ldexp(arr, fracs[name])).astype(np.int64)
    return FxpModel(config=model.config, encoder=model.encoder, lif=model.lif,
                    ints=ints, fracs=fracs, formats=formats)


def _clamp(x: np.ndarray, lo: float, hi: float, stats: dict | None) -> np.ndarray:
    """Clamp the LIF state x into [lo, hi] in place; with `stats`, add the
    values it moves to stats["state_clips"]."""
    if stats is not None:
        moved = np.count_nonzero(x < lo) + np.count_nonzero(x > hi)
        stats["state_clips"] = stats.get("state_clips", 0) + int(moved)
    # the ufuncs directly: np.clip's Python wrapper costs more than the clamp
    np.maximum(x, lo, out=x)
    return np.minimum(x, hi, out=x)


def fxp_lif_step(v: np.ndarray, i: np.ndarray, drive: np.ndarray, spec: FxpLifSpec,
                 stats: dict | None = None):
    """One integer LIF step with shift decays; returns (v', i', spikes).

    i' = i - (i >> k_i) + drive; v' = v - (v >> k_v) + (i' >> k_v); spike on
    v' >= v_th_int, hard reset to v_r_int. Shifts are arithmetic (floor, also
    for negatives). v, i, drive and v_r_int lie in the state format's range
    [lo, hi], as fxp_forward's do; i' is clamped back into it, and v' needs no
    clamp: x - (x >> k) and y >> k grow with x and y, so v' lies between
    lo - (lo >> k) + (lo >> k) = lo and hi. State clips are quantization
    semantics (mirrored by QAT), counted under "state_clips".

    The integers are held in float64: x >> k is floor(x * 2^-k), exact as the
    scale only moves the exponent, and on a state grid of at most 16 bits
    every sum is an integer of magnitude at most 2^16. v and i are updated in
    place when float64 arrays (fxp_forward's), else copied; spikes is a
    float64 array of 0 and 1.
    """
    v, i = np.asarray(v, dtype=float), np.asarray(i, dtype=float)
    shifted = np.empty_like(v)

    def shr(x, k):  # x >> k; 2^-k underflows past 1074 bits, where |x| < 2^16 floors alike
        return np.floor(np.multiply(x, 2.0 ** -min(k, 1074), out=shifted), out=shifted)

    i -= shr(i, spec.k_i)
    i += drive
    _clamp(i, spec.state_min, spec.state_max, stats)
    v -= shr(v, spec.k_v)
    v += shr(i, spec.k_v)
    fired = v >= spec.v_th_int
    np.putmask(v, fired, spec.v_r_int)
    return v, i, fired.astype(float)


def _requantize(x: np.ndarray, spec: FxpLifSpec, stats: dict | None) -> np.ndarray:
    """The hidden drive x = h * 2^-shift, already scaled onto the state grid,
    rounded half up and clamped to the state range in place ("state_clips").
    Exact for integers |h| <= 2^52, as every accumulator is, and shifts in
    [-45, 52], as every model's is (_check_model): the scale only moves the
    exponent, and floor(x + 1/2) rounds as integer arithmetic does and keeps
    a left shift's integers."""
    x += 0.5
    return _clamp(np.floor(x, out=x), spec.state_min, spec.state_max, stats)


class _Resolved:
    """fxp_forward's constants, all float64: the weights transposed, with each
    product's alignment shift folded in; the aligned biases; and the t >= 1
    hidden drive before fc2 (h_rest). The hidden drive's shift onto the
    state grid is folded into its products too.
    """

    def __init__(self, model: FxpModel):
        w, f = model.ints, model.fracs
        f_a, f_h, f_z = _accumulator_fracs(f)
        shift = f_h - model.state_fmt.frac_bits

        def aligned(name, frac):  # exact: |int| * 2^(frac - fracs[name]) stays normal
            return np.ldexp(w[name].astype(float), frac - f[name])

        def transposed(name, frac):  # row-major: BLAS multiplies it faster
            return np.ascontiguousarray(aligned(name, frac).T)

        self.w0 = transposed("w_fc0", f_a)
        self.w1 = transposed("w_fc1", f_h - shift - f_a)
        self.w2 = transposed("w_fc2", f_h - shift)
        self.w3 = transposed("w_fc3", f_z)
        self.a_bias = aligned("b_fc0", f_a)
        self.b1 = aligned("b_fc1", f_h - shift)
        # the fc1 drive of steps t >= 1 sees only the fc0 bias
        self.h_rest = self.a_bias @ self.w1 + self.b1
        self.z_bias = aligned("b_fc3", f_z)


def fxp_forward(windows, model: FxpModel, stats: dict | None = None) -> np.ndarray:
    """Integer-exact T-step forward pass over a batch of ternary windows (B, n_input).

    The dataflow mirrors the float forward: fc0 sees the windows at the first
    step only; the hidden drive is requantized onto the state grid (round
    half-up) before entering the current equation; fc3 readouts accumulate over
    steps. Returns the int64 logits (B, n_classes) on the fc3 grid. With
    `stats`, the LIF state clips are added to its "state_clips" count.

    Every value is an integer in a float64 array updated in place, exact as
    each accumulator and shifted partial sum is within its worst case, which
    fits acc_bits (so nothing saturates) and lies below 2^53, and each state
    on a grid of at most 16 bits (see FxpFormats). The products run on
    float64 BLAS with their alignment shifts folded into the weights, and the
    hidden drive's shift onto the state grid into its own, so no step scales
    the drive. The readout is linear in the spikes: one product of their
    counts, with the constants the model folded at construction.
    """
    c, cfg, spec = model._resolved, model.config, model.lif_spec
    enc = np.asarray(windows, dtype=float)
    if enc.ndim != 2 or enc.shape[1] != cfg.n_input:
        raise ValueError(f"windows have shape {enc.shape}, expected (B, {cfg.n_input})")
    if not ((enc == 0) | (np.abs(enc) == 1)).all():
        raise ValueError("fxp_forward requires ternary {-1, 0, 1} windows")
    a_window = enc @ c.w0
    a_window += c.a_bias
    h = a_window @ c.w1  # the first step's drive: no spikes yet
    h += c.b1
    v = np.zeros_like(h)
    i = np.zeros_like(h)
    counts = np.zeros_like(h)
    for t in range(cfg.steps):
        if t:
            np.matmul(spikes, c.w2, out=h)
            h += c.h_rest
        drive = _requantize(h, spec, stats)
        v, i, spikes = fxp_lif_step(v, i, drive, spec, stats)
        counts += spikes
    return (counts @ c.w3 + cfg.steps * c.z_bias).astype(np.int64)


_FXP_FIELDS = ("fracs", "state_bits", "state_frac_bits", "k_v", "k_i",
               "v_th_int", "v_r_int", "weight_bits", "acc_bits")


def _header_constants(model: FxpModel) -> dict:
    """The header keys after "fracs" in _FXP_FIELDS, as the model derives them."""
    spec, fmt = model.lif_spec, model.state_fmt
    return {"state_bits": fmt.total_bits, "state_frac_bits": fmt.frac_bits,
            "k_v": spec.k_v, "k_i": spec.k_i, "v_th_int": spec.v_th_int, "v_r_int": spec.v_r_int,
            "weight_bits": model.formats.weight_bits, "acc_bits": model.formats.acc_bits}


def save_fxp_model(path, model: FxpModel) -> None:
    """Integer model container: json header plus raw int64 tensors. The header
    carries the derived constants (k_v, v_th_int, ...) for hardware readers."""
    save_container(path, FXP_FORMAT, FXP_VERSION, model, model.ints,
                   fracs=dict(model.fracs), **_header_constants(model))


def load_fxp_model(path) -> FxpModel:
    """Read a save_fxp_model container through FxpModel's checks.

    Raises ValueError on a malformed file, on bit widths FxpFormats refuses,
    on a model FxpModel refuses (ConversionError) and on a header constant
    that differs from the one the model derives.
    """
    header, ints, common = load_container(path, FXP_FORMAT, FXP_VERSION, _FXP_FIELDS)
    formats = FxpFormats(header["weight_bits"], header["state_bits"], header["acc_bits"])
    model = FxpModel(**common, ints=ints, fracs=header["fracs"], formats=formats)
    differ = [f"{key}={header[key]} (derived {value})"
              for key, value in _header_constants(model).items() if header[key] != value]
    if differ:
        raise ValueError(f"header constants differ from the model's: {', '.join(differ)}")
    return model
