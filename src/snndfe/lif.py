"""Discrete-time leaky-integrate-and-fire update (float arithmetic).

Explicit-Euler update per step: the synaptic current decays and integrates the
drive, the membrane voltage decays toward the leak potential and integrates
the current, a spike fires when the voltage reaches threshold, and the voltage
is hard-reset afterwards. Decay factors are expressed directly as per-step
rates, so 0.125 and 0.25 correspond to the shift-friendly hardware constants.
`lif_step` is the one float definition of this update; the equalizer's
forward pass, and so training and inference, run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Slope of training's fast-sigmoid surrogate and of the spike's sigmoid twin.
SURROGATE_SLOPE = 100.0


@dataclass(frozen=True)
class LifParams:
    """Neuron constants. alpha_v/alpha_i are per-step decay-and-gain rates."""

    alpha_v: float = 0.1
    alpha_i: float = 0.2
    v_th: float = 1.0
    v_r: float = 0.0
    v_leak: float = 0.0
    r: float = 1.0  # input resistance, folded into the weights; kept for completeness

    def __post_init__(self):
        for name in ("v_th", "v_r", "v_leak"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.alpha_v < 1.0:
            raise ValueError("alpha_v must be in (0, 1)")
        if not 0.0 < self.alpha_i < 1.0:
            raise ValueError("alpha_i must be in (0, 1)")
        if self.v_th <= self.v_r:
            raise ValueError("v_th must exceed v_r")

    @classmethod
    def shift_friendly(cls) -> "LifParams":
        """Constants whose decays are exact powers of two (alpha_v=2^-3, alpha_i=2^-2)."""
        return cls(alpha_v=0.125, alpha_i=0.25)


def smooth_spike(u, slope: float = SURROGATE_SLOPE):
    """Sigmoid twin of the spike function and its exact derivative.

    s(u) = (1 + slope*u/(1+slope*|u|))/2 ranges over (0, 1), and
    s'(u) = slope/2 * surrogate_grad(u), so the smooth forward/backward pair
    is finite-difference-consistent.
    """
    u = np.asarray(u, dtype=float)
    denom = 1.0 + slope * np.abs(u)
    value = 0.5 * (1.0 + slope * u / denom)
    deriv = 0.5 * slope / denom ** 2
    return value, deriv


def lif_step(v: np.ndarray, i: np.ndarray, drive: np.ndarray, params: LifParams,
             quantize=None, smooth: bool = False, *, out):
    """Advance one step given the already-summed synaptic drive.

    Returns (v, i, spikes, v_pre) for arrays of any one shape. Update order:
    current decays and integrates the drive, voltage decays toward v_leak and
    integrates the new current, threshold compare (ties spike), hard reset to
    v_r. `quantize(x, name)`, when given, rounds the new current ("i") and the
    reset voltage ("v") onto the state grid (QAT), and may do so in place.
    `smooth` swaps the Heaviside for its sigmoid twin (smooth_spike) and the
    reset for the differentiable v_pre - s*(v_pre - v_r), for finite-difference
    checks of training. Each result is built in place on the matching array of
    `out` = (v, i, spikes, v_pre), whose v and i may be the state itself.
    """
    if np.shape(drive) != np.shape(v):
        raise ValueError(f"drive shape {np.shape(drive)} != state shape {np.shape(v)}")
    v_out, i_out, s_out, vp_out = out
    i = np.multiply(i, 1.0 - params.alpha_i, out=i_out)  # (1 - alpha_i) * i + drive
    i += drive
    if quantize is not None:
        i = quantize(i, "i")
    v_pre = np.subtract(params.v_leak, v, out=vp_out)  # v + alpha_v * ((v_leak - v) + i)
    v_pre += i
    v_pre *= params.alpha_v
    v_pre += v
    spikes, v = s_out, v_out
    if not smooth:
        fired = v_pre >= params.v_th
        np.copyto(spikes, fired)  # 1.0 where fired, else 0.0
        np.copyto(v, v_pre)
        np.putmask(v, fired, params.v_r)
    else:
        np.copyto(spikes, smooth_spike(v_pre - params.v_th)[0])
        np.subtract(v_pre, params.v_r, out=v)  # v_pre - s * (v_pre - v_r)
        v *= spikes
        np.subtract(v_pre, v, out=v)
    if quantize is not None:
        v = quantize(v, "v")
    return v, i, spikes, v_pre
