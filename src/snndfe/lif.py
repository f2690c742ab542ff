"""Discrete-time leaky-integrate-and-fire update (float arithmetic).

Explicit-Euler update per step: the synaptic current decays and integrates the
drive, the membrane voltage decays toward 0 and integrates the current, a
spike fires when the voltage reaches threshold, and the voltage is hard-reset
afterwards. Decay factors are expressed directly as per-step rates, so 0.125
and 0.25 correspond to the shift-friendly hardware constants. `lif_step` is
the one float definition of this update; the equalizer's forward pass, and so
training and inference, run it. Its sigmoid twin, on which training's
backward is checked against finite differences, lives with the allocating
test oracle in tests/test_train.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LifParams:
    """Neuron constants. alpha_v/alpha_i are per-step decay-and-gain rates. The
    neuron leaks toward 0 and its input resistance is folded into the weights:
    v_leak must be 0 and r 1, fields only because model files carry them."""

    alpha_v: float = 0.1
    alpha_i: float = 0.2
    v_th: float = 1.0
    v_r: float = 0.0
    v_leak: float = 0.0
    r: float = 1.0

    def __post_init__(self):
        for name in ("v_th", "v_r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.v_leak != 0.0 or self.r != 1.0:
            raise ValueError(f"need v_leak = 0 and r = 1, got {self.v_leak} and {self.r}")
        for name in ("alpha_v", "alpha_i"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.v_th <= self.v_r:
            raise ValueError("v_th must exceed v_r")

    @classmethod
    def shift_friendly(cls) -> "LifParams":
        """Constants whose decays are exact powers of two (alpha_v=2^-3, alpha_i=2^-2)."""
        return cls(alpha_v=0.125, alpha_i=0.25)


def lif_step(v: np.ndarray, i: np.ndarray, drive: np.ndarray, params: LifParams,
             quantize=None, *, out):
    """Advance one step given the already-summed synaptic drive.

    Returns (v, i, spikes, v_pre) for arrays of any one shape. Update order:
    current decays and integrates the drive, voltage decays toward 0 and
    integrates the new current, threshold compare (ties spike), hard reset to
    v_r. `quantize(x, name)`, when given, rounds the new current ("i") and the
    reset voltage ("v") onto the state grid (QAT), and may do so in place.
    Each result is built in place on the matching array of `out` =
    (v, i, spikes, v_pre), whose v and i may be the state itself.
    """
    if np.shape(drive) != np.shape(v):
        raise ValueError(f"drive shape {np.shape(drive)} != state shape {np.shape(v)}")
    v_out, i_out, s_out, vp_out = out
    i = np.multiply(i, 1.0 - params.alpha_i, out=i_out)  # (1 - alpha_i) * i + drive
    i += drive
    if quantize is not None:
        i = quantize(i, "i")
    v_pre = np.subtract(i, v, out=vp_out)  # v + alpha_v * (i - v)
    v_pre *= params.alpha_v
    v_pre += v
    spikes, v = s_out, v_out
    fired = v_pre >= params.v_th
    np.copyto(spikes, fired)  # 1.0 where fired, else 0.0
    np.copyto(v, v_pre)
    np.putmask(v, fired, params.v_r)
    if quantize is not None:
        v = quantize(v, "v")
    return v, i, spikes, v_pre
