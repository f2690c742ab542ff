"""Shared fixed-point formats and fake quantization.

All scales are powers of two so float<->integer conversion is exact and the
training-time fake quantization, the integer engine, and its float-side test
twin can agree bit-for-bit where they are meant to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    """Grid for LIF voltage/current: 3 integer bits (range +/-4) by convention."""
    return FxpFormat(bits, bits - 3)


@dataclass(frozen=True)
class QatConfig:
    """Quantization-aware-training bit widths for weights/biases and LIF state."""

    weight_bits: int = 8
    state_bits: int = 8

    def __post_init__(self):
        for bits in (self.weight_bits, self.state_bits):
            if bits < 2:
                raise ValueError("bit widths must be >= 2")


def pow2_scale(max_abs: float, bits: int) -> float:
    """Smallest power-of-two step with max_abs <= (2^(bits-1)-1) * step."""
    qmax = 2 ** (bits - 1) - 1
    if max_abs <= 0 or not math.isfinite(max_abs):
        return 2.0 ** (1 - bits)
    mantissa, exponent = math.frexp(max_abs / qmax)  # value = mantissa * 2^exponent
    return 2.0 ** (exponent - 1) if mantissa == 0.5 else 2.0 ** exponent


def fake_quantize(x: np.ndarray, bits: int, scale: float | None = None) -> np.ndarray:
    """Round onto a symmetric signed grid with saturation.

    value -> clamp(round(value/step), -2^(bits-1), 2^(bits-1)-1) * step, with a
    per-tensor power-of-two step fitted from max|x| when not given. Rounding is
    to nearest, ties to even. Idempotent by construction.
    """
    x = np.asarray(x, dtype=float)
    if scale is None:
        scale = pow2_scale(float(np.max(np.abs(x))) if x.size else 0.0, bits)
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    # the ufuncs directly: np.clip's Python wrapper dominates per-step calls
    ints = np.minimum(np.maximum(np.rint(x / scale), lo), hi)
    return ints * scale


def fake_quantize_with_mask(x: np.ndarray, bits: int, scale: float | None = None):
    """fake_quantize plus the straight-through mask (1 inside the clamp range)."""
    x = np.asarray(x, dtype=float)
    if scale is None:
        scale = pow2_scale(float(np.max(np.abs(x))) if x.size else 0.0, bits)
    ints = np.rint(x / scale)
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    mask = ((ints >= lo) & (ints <= hi)).astype(float)
    return np.clip(ints, lo, hi) * scale, mask, scale
