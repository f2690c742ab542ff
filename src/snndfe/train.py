"""Surrogate-gradient training of the equalizer.

The T-step recurrence is unrolled by hand and differentiated with the fast
sigmoid surrogate standing in for the Heaviside derivative; the hard reset is
a stop-gradient branch. Quantization-aware training fake-quantizes weights,
biases, the per-step drive and the LIF state with straight-through gradients.
The backward is the adjoint of equalizer.forward as written: like the
forward, which computes the fc1 drive of the steps t >= 1 once, it sums their
drive gradient over steps and applies it to fc1 and b_fc0 once. It is checked
against central finite differences in tests/test_train.py, on the allocating
oracle's sigmoid twin of the spike, and equals that oracle byte for byte on
the Heaviside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import BITS_PER_SYMBOL, ChannelConfig, bits_to_classes, check_int, simulate_link
from .equalizer import (EncoderConfig, EqualizerModel, TopologyConfig, Workspace,
                        forward, teacher_forced_windows)
from .harness import derive_rng
from .lif import LifParams
from .quant import QatConfig, fake_quantize_with_mask


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


# The SNR of every training frame and of the encoder's calibration frame.
TRAIN_SNR_DB = 17.0
# Slope of the fast-sigmoid surrogate that stands in for the spike's derivative.
SURROGATE_SLOPE = 100.0


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings. The defaults are the desk scale a dse.TrialScale
    trial runs: one epoch of 120 batches of 500 windows. train builds the
    model with `qat`; the training SNR (TRAIN_SNR_DB) and the surrogate slope
    (SURROGATE_SLOPE) are constants, not settings. ValueError unless the counts
    are integers >= 1, the seed one >= 0 (plain ints), learning_rate finite >= 0."""

    learning_rate: float = 1e-3
    epochs: int = 1
    batches_per_epoch: int = 120
    batch_size: int = 500
    qat: QatConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        for name, lo in (("epochs", 1), ("batches_per_epoch", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))


# Adam's standard constants: moment decay rates and the denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators and the step count."""

    m: dict
    v: dict
    step: int = 0

    @classmethod
    def init(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def surrogate_grad(u, out=None):
    """Fast-sigmoid surrogate of the Heaviside derivative, 1/(1+SURROGATE_SLOPE*|u|)^2,
    built in place on one array: `out` (which may be u itself) when given."""
    u = np.asarray(u, dtype=float)
    g = np.abs(u, out=np.empty_like(u) if out is None else out)
    g *= SURROGATE_SLOPE
    g += 1.0
    g *= g
    np.reciprocal(g, out=g)
    return g if g.ndim else g[()]  # a scalar for a scalar u, as a ufunc gives


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, in place."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for key, p in params.items():
        g = grads[key]
        state.m[key] = b1 * state.m[key] + (1.0 - b1) * g
        state.v[key] = b2 * state.v[key] + (1.0 - b2) * g * g
        p -= lr * (state.m[key] / bc1) / (np.sqrt(state.v[key] / bc2) + ADAM_EPS)


def loss_and_grads(windows: np.ndarray, labels: np.ndarray, model: EqualizerModel,
                   workspace: Workspace | None = None):
    """Mean cross-entropy over a teacher-forced batch and its gradients, under
    the model's own QAT config (`model.qat`): Heaviside forward, surrogate
    backward (surrogate_grad), stop-gradient through the reset. The forward
    pass is equalizer.forward, the one inference runs; the backward runs in
    place on arrays from `workspace` too (see forward).
    """
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = model.config.n_classes
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")
    qat, lif = model.qat, model.lif
    av, ai = lif.alpha_v, lif.alpha_i
    n_steps = model.config.steps
    batch = windows.shape[0]

    new = Workspace() if workspace is None else workspace
    # the weights forward sees and, under QAT, their bool straight-through masks
    eff, wmasks = model.parameters(), {}
    if qat is not None:
        for key, p in model.parameters().items():
            eff[key], wmasks[key] = fake_quantize_with_mask(p, qat.weight_bits)
    w1, w2, w3 = eff["w_fc1"], eff["w_fc2"], eff["w_fc3"]
    z, tape = forward(windows, eff, model.config, lif, qat, keep=True, workspace=new)
    S, VP, a0 = tape["s"], tape["v_pre"], tape["a0"]

    z_shift = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(z_shift), axis=1))
    loss = float(np.mean(log_norm - z_shift[np.arange(batch), labels]))

    # backward: forward's steps in reverse. Under QAT each gradient takes its
    # quantizer's straight-through mask where it is formed, so the recurrence,
    # fc2 and fc1 all see the same drive gradient.
    dz = np.exp(z_shift - log_norm[:, None])
    dz[np.arange(batch), labels] -= 1.0
    dz /= batch
    dz_w3 = np.matmul(dz, w3, out=new("dz_w3", a0.shape))
    carry_v = new("carry_v", a0.shape)  # dL/d v_t (post-reset, post-quant), from step t+1
    carry_i = new("carry_i", a0.shape)  # dL/d i_t (post-quant), from step t+1
    carry_v.fill(0.0)
    carry_i.fill(0.0)
    gh_next = None  # dL/d drive of step t+1: none after the last step
    # in place: ds in `spare` (then the voltage carry, whose old buffer is the
    # next spare), the drive gradient in `gh` once step t+1's has been read
    spare, scratch, gh = new("ds", a0.shape), new("scratch", a0.shape), new("gh", a0.shape)
    gh_rest = np.zeros(model.config.hidden)  # batch-summed gh of the steps t >= 1
    g_w2 = np.zeros_like(w2)
    for t in range(n_steps - 1, -1, -1):
        if gh_next is None:
            ds = np.add(dz_w3, 0.0, out=spare)  # as dz_w3 + (zeros @ w2): the same signed zeros
        else:
            # step t+1's drive read s_t through fc2, and the fc1 input all steps t >= 1 share
            gh_rest += gh_next.sum(axis=0)
            g_w2 += gh_next.T @ S[t]
            ds = np.matmul(gh_next, w2, out=spare)
            ds += dz_w3
        gv = carry_v
        if qat is not None:
            gv *= tape["v"][t]
        u = np.subtract(VP[t], lif.v_th, out=scratch)
        fprime = surrogate_grad(u, out=u)
        gvp = ds  # ds * fprime + gv * (1 - s_t)
        gvp *= fprime
        leak = np.subtract(1.0, S[t], out=scratch)
        leak *= gv
        gvp += leak
        gi = np.multiply(gvp, av, out=gh)  # gvp * av + carry_i
        gi += carry_i
        if qat is not None:
            gi *= tape["i"][t]
        spare, carry_v = carry_v, gvp
        carry_v *= 1.0 - av
        np.multiply(gi, 1.0 - ai, out=carry_i)
        if qat is not None:
            gi *= tape["h"][t]
        gh_next = gi

    # gh_next is now step 0's, whose fc1 input is the fc0 output a0
    ga0 = np.matmul(gh_next, w1, out=spare)
    spike_counts = scratch
    spike_counts.fill(0.0)
    for s in S:
        spike_counts += s
    grads = {
        "w_fc0": ga0.T @ windows,
        "b_fc0": ga0.sum(axis=0) + gh_rest @ w1,
        "w_fc1": gh_next.T @ a0 + np.outer(gh_rest, eff["b_fc0"]),
        "b_fc1": gh_next.sum(axis=0) + gh_rest,
        "w_fc2": g_w2,
        "w_fc3": dz.T @ spike_counts,
        "b_fc3": n_steps * dz.sum(axis=0),
    }
    if qat is not None:
        for key, g in grads.items():
            g *= wmasks[key]
    return loss, grads


def calibrate_encoder(channel_cfg: ChannelConfig, snr_db: float,
                      rng: np.random.Generator) -> EncoderConfig:
    """Min-max fit of the amplitude binning on a fresh 20,000-symbol frame."""
    bits = rng.integers(0, 2, BITS_PER_SYMBOL * 20_000)
    _, y = simulate_link(bits, channel_cfg, snr_db, rng)
    return EncoderConfig(float(np.min(y)), float(np.max(y)))


def default_lif(qat: QatConfig | None) -> LifParams:
    """train's LIF when given none: under QAT the shift-friendly one fxp runs."""
    return LifParams.shift_friendly() if qat is not None else LifParams()


def train(channel_cfg: ChannelConfig, topology_cfg: TopologyConfig,
          train_cfg: TrainConfig, lif: LifParams | None = None,
          progress=None):
    """Train a fresh model on freshly simulated data.

    Each batch simulates a new frame at TRAIN_SNR_DB, builds teacher-forced
    windows and applies one Adam step; LIF constants stay fixed. Returns the
    model and a log of (batch, loss, grad_norm) rows. Deterministic for a given
    seed and BLAS thread count. Raises TrainingDiverged if the loss stops
    being finite.
    """
    lif = default_lif(train_cfg.qat) if lif is None else lif
    encoder = calibrate_encoder(channel_cfg, TRAIN_SNR_DB,
                                derive_rng(train_cfg.seed, "calibration"))
    model = EqualizerModel.initialize(
        topology_cfg, lif, encoder, derive_rng(train_cfg.seed, "init"), qat=train_cfg.qat
    )
    params = model.parameters()
    adam = AdamState.init(params)
    workspace = Workspace()
    log = []
    total = train_cfg.epochs * train_cfg.batches_per_epoch
    history = topology_cfg.history
    for batch_idx in range(total):
        rng = derive_rng(train_cfg.seed, f"batch:{batch_idx}")
        bits = rng.integers(0, 2, BITS_PER_SYMBOL * (train_cfg.batch_size + history))
        classes = bits_to_classes(bits, BITS_PER_SYMBOL)
        _, y = simulate_link(bits, channel_cfg, TRAIN_SNR_DB, rng)
        windows, labels = teacher_forced_windows(y, classes, encoder, topology_cfg)
        loss, grads = loss_and_grads(windows, labels, model, workspace=workspace)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"loss became non-finite at batch {batch_idx}")
        grad_norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        adam_step(params, grads, adam, train_cfg.learning_rate)
        log.append((batch_idx, loss, grad_norm))
        if progress is not None:
            progress(batch_idx, total, loss)
    return model, log
