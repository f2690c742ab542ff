"""Shared fixed-point formats and fake quantization.

All scales are powers of two so float<->integer conversion is exact and the
training-time fake quantization, the integer engine, and its float-side test
twin can agree bit-for-bit where they are meant to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import check_int


@dataclass(frozen=True)
class FxpFormat:
    """Signed fixed-point format: total_bits with frac_bits fractional bits."""

    total_bits: int
    frac_bits: int

    def __post_init__(self):
        if not 0 < self.frac_bits < self.total_bits:
            raise ValueError("need 0 < frac_bits < total_bits")

    @property
    def scale(self) -> float:
        return 2.0 ** (-self.frac_bits)

    @property
    def min_int(self) -> int:
        return -(2 ** (self.total_bits - 1))

    @property
    def max_int(self) -> int:
        return 2 ** (self.total_bits - 1) - 1


def state_format(bits: int) -> FxpFormat:
    """Grid for LIF voltage/current: 3 integer bits (range +/-4) by convention,
    so ValueError unless state_bits is an integer >= 4 (channel.check_int)."""
    bits = check_int("state_bits", bits, 4)
    return FxpFormat(bits, bits - 3)


@dataclass(frozen=True)
class QatConfig:
    """Quantization-aware-training bit widths for weights/biases and LIF state,
    plain ints: ValueError unless weight_bits >= 2 and state_bits >= 4."""

    weight_bits: int = 8
    state_bits: int = 8

    def __post_init__(self):
        object.__setattr__(self, "weight_bits", check_int("weight_bits", self.weight_bits, 2))
        object.__setattr__(self, "state_bits", state_format(self.state_bits).total_bits)


def pow2_exponent(max_abs: float, bits: int) -> int:
    """e of the smallest power-of-two step 2^e with max_abs <= (2^(bits-1)-1) * 2^e."""
    qmax = 2 ** (bits - 1) - 1
    if max_abs <= 0 or not math.isfinite(max_abs):
        return 1 - bits
    mantissa, exponent = math.frexp(max_abs / qmax)  # value = mantissa * 2^exponent
    return exponent - 1 if mantissa == 0.5 else exponent


def pow2_scale(max_abs: float, bits: int) -> float:
    """Smallest power-of-two step with max_abs <= (2^(bits-1)-1) * step."""
    return 2.0 ** pow2_exponent(max_abs, bits)


def _quantize(x, bits: int, scale: float | None, out, masked: bool):
    """The core of fake_quantize and fake_quantize_with_mask: (q, mask or None),
    the mask taken between the rounding and the clamps."""
    x = np.asarray(x, dtype=float)
    if scale is None:
        scale = pow2_scale(float(np.max(np.abs(x))) if x.size else 0.0, bits)
    mantissa, exponent = math.frexp(scale)
    if mantissa != 0.5:
        raise ValueError(f"scale must be a power of two, got {scale}")
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    q = np.ldexp(x, 1 - exponent, out=np.empty_like(x) if out is None else out)  # x / scale
    # the ufuncs directly: np.clip's Python wrapper dominates per-step calls
    np.rint(q, out=q)
    mask = None
    if masked:
        mask = q >= lo
        mask &= q <= hi
    np.maximum(q, lo, out=q)
    np.minimum(q, hi, out=q)
    q *= scale
    return q, mask


def fake_quantize(x: np.ndarray, bits: int, scale: float | None = None,
                  out=None) -> np.ndarray:
    """Round onto a symmetric signed grid with saturation.

    value -> clamp(rint(value/step), -2^(bits-1), 2^(bits-1)-1) * step, with a
    per-tensor power-of-two step fitted from max|x| when not given; a given
    `scale` must be a power of two, or ValueError is raised. Rounding is to
    nearest, ties to even. Idempotent by construction. The division is
    np.ldexp by the grid's fractional bits, bitwise equal to it for every
    power-of-two step down to 2^-1074 (a reciprocal multiply is not: 1/2^-1074
    overflows), and the rounding and clamps work in place on that one array,
    `out` (which may be x itself) when given.
    """
    return _quantize(x, bits, scale, out, False)[0]


def fake_quantize_with_mask(x: np.ndarray, bits: int, scale: float | None = None, out=None):
    """fake_quantize plus its straight-through mask: (q, mask), the mask a bool
    array, True where rint(value/step) lies inside the clamp range."""
    return _quantize(x, bits, scale, out, True)
