import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndfe.channel import ChannelConfig
from snndfe.equalizer import EncoderConfig, EqualizerModel, TopologyConfig, Workspace, forward
from snndfe.harness import derive_rng
from snndfe.lif import LifParams, lif_step
from snndfe.quant import (QatConfig, fake_quantize, fake_quantize_with_mask, pow2_scale,
                          state_format)
from snndfe.train import (
    SURROGATE_SLOPE,
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    loss_and_grads,
    surrogate_grad,
    teacher_forced_windows,
    train,
)

DESK_CHANNEL = ChannelConfig()


def tiny_model(n_tap=1, hidden=4, steps=3, seed=0, scale=1.0, lif=None):
    cfg = TopologyConfig(n_tap=n_tap, hidden=hidden, steps=steps)
    model = EqualizerModel.initialize(
        cfg, lif or LifParams(), EncoderConfig(0.0, 1.0), np.random.default_rng(seed)
    )
    if scale != 1.0:
        for name in model.PARAM_NAMES:
            getattr(model, name)[:] *= scale
    return model


def random_batch(model, n, seed=1):
    rng = np.random.default_rng(seed)
    cfg = model.config
    y = rng.uniform(0.0, 1.0, n + cfg.history)
    classes = rng.integers(0, cfg.n_classes, n + cfg.history)
    windows, labels = teacher_forced_windows(y, classes, model.encoder, cfg)
    return windows, labels


# The training step as first written, one fresh array per operation: the
# oracle the in-place forward, LIF step, quantizer and backward must equal
# byte for byte. Its `smooth` mode swaps the Heaviside for its sigmoid twin in
# both passes (with the full reset gradient), so that the backward can be
# checked against central finite differences.
def reference_fake_quantize_with_mask(x, bits, scale=None):
    x = np.asarray(x, dtype=float)
    if scale is None:
        scale = pow2_scale(float(np.max(np.abs(x))) if x.size else 0.0, bits)
    ints = np.rint(x / scale)
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    mask = ((ints >= lo) & (ints <= hi)).astype(float)
    return np.clip(ints, lo, hi) * scale, mask


def smooth_spike(u):
    """Sigmoid twin of the spike function and its exact derivative.

    s(u) = (1 + k*u/(1+k*|u|))/2 ranges over (0, 1), and
    s'(u) = k/2 * surrogate_grad(u) for k = SURROGATE_SLOPE, so the smooth
    forward/backward pair is finite-difference-consistent.
    """
    u = np.asarray(u, dtype=float)
    denom = 1.0 + SURROGATE_SLOPE * np.abs(u)
    value = 0.5 * (1.0 + SURROGATE_SLOPE * u / denom)
    deriv = 0.5 * SURROGATE_SLOPE / denom ** 2
    return value, deriv


def reference_lif_step(v, i, drive, params, quantize=None, smooth=False):
    i = (1.0 - params.alpha_i) * i + drive
    if quantize is not None:
        i = quantize(i, "i")
    v_pre = v + params.alpha_v * ((params.v_leak - v) + i)
    if smooth:
        spikes, _ = smooth_spike(v_pre - params.v_th)
        v = v_pre - spikes * (v_pre - params.v_r)
    else:
        fired = v_pre >= params.v_th
        spikes = fired.astype(float)
        v = np.where(fired, params.v_r, v_pre)
    if quantize is not None:
        v = quantize(v, "v")
    return v, i, spikes, v_pre


def reference_forward(windows, weights, config, lif, qat=None, smooth=False):
    w1, b1, w2 = weights["w_fc1"], weights["b_fc1"], weights["w_fc2"]
    w3, b3 = weights["w_fc3"], weights["b_fc3"]
    a0 = windows @ weights["w_fc0"].T + weights["b_fc0"]
    a_rest = weights["b_fc0"] @ w1.T + b1
    tape = {"a0": a0, "s": [], "v_pre": [], "h": [], "i": [], "v": []}
    quantize = None
    if qat is not None:
        grid = state_format(qat.state_bits)

        def quantize(x, name):
            q, mask = reference_fake_quantize_with_mask(x, grid.total_bits, grid.scale)
            tape[name].append(mask)
            return q

    v = i = s = np.zeros((windows.shape[0], config.hidden))
    logits = np.zeros((windows.shape[0], config.n_classes))
    for t in range(config.steps):
        h = a0 @ w1.T + b1 if t == 0 else a_rest + s @ w2.T
        if quantize is not None:
            h = quantize(h, "h")
        v, i, s, v_pre = reference_lif_step(v, i, h, lif, quantize, smooth)
        logits += s @ w3.T + b3
        tape["s"].append(s)
        tape["v_pre"].append(v_pre)
    return logits, tape


def reference_loss_and_grads(windows, labels, model, smooth=False):
    qat, lif, slope = model.qat, model.lif, SURROGATE_SLOPE
    av, ai = lif.alpha_v, lif.alpha_i
    n_steps = model.config.steps
    batch = windows.shape[0]
    if qat is None:
        eff, wmasks = model.parameters(), None
    else:
        eff, wmasks = {}, {}
        for key, p in model.parameters().items():
            eff[key], wmasks[key] = reference_fake_quantize_with_mask(p, qat.weight_bits)
    w1, w2, w3 = eff["w_fc1"], eff["w_fc2"], eff["w_fc3"]
    z, tape = reference_forward(windows, eff, model.config, lif, qat, smooth)
    S, VP, a0 = tape["s"], tape["v_pre"], tape["a0"]
    z_shift = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(z_shift), axis=1))
    loss = float(np.mean(log_norm - z_shift[np.arange(batch), labels]))
    dz = np.exp(z_shift - log_norm[:, None])
    dz[np.arange(batch), labels] -= 1.0
    dz /= batch
    dz_w3 = dz @ w3
    carry_v = np.zeros_like(a0)
    carry_i = np.zeros_like(a0)
    gh_next = np.zeros_like(a0)
    gh_rest = np.zeros(model.config.hidden)
    g_w2 = np.zeros_like(w2)
    for t in range(n_steps - 1, -1, -1):
        gh_rest += gh_next.sum(axis=0)
        g_w2 += gh_next.T @ S[t]
        ds = dz_w3 + gh_next @ w2
        gv = carry_v if qat is None else carry_v * tape["v"][t]
        u = VP[t] - lif.v_th
        if smooth:
            _, fprime = smooth_spike(u)
            ds = ds + gv * (lif.v_r - VP[t])
        else:
            fprime = 1.0 / (1.0 + slope * np.abs(u)) ** 2
        gvp = ds * fprime + gv * (1.0 - S[t])
        gi = gvp * av + carry_i
        if qat is not None:
            gi = gi * tape["i"][t]
        carry_v = (1.0 - av) * gvp
        carry_i = (1.0 - ai) * gi
        gh_next = gi if qat is None else gi * tape["h"][t]
    ga0 = gh_next @ w1
    grads = {
        "w_fc0": ga0.T @ windows,
        "b_fc0": ga0.sum(axis=0) + gh_rest @ w1,
        "w_fc1": gh_next.T @ a0 + np.outer(gh_rest, eff["b_fc0"]),
        "b_fc1": gh_next.sum(axis=0) + gh_rest,
        "w_fc2": g_w2,
        "w_fc3": dz.T @ sum(S),
        "b_fc3": n_steps * dz.sum(axis=0),
    }
    if qat is not None:
        grads = {key: g * wmasks[key] for key, g in grads.items()}
    return loss, grads


class TestSurrogate:
    def test_peak_at_zero(self):
        assert surrogate_grad(0.0) == 1.0

    def test_monotone_decay_to_zero(self):
        u = np.linspace(0, 50, 200)
        vals = surrogate_grad(u)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-6

    def test_symmetric(self):
        u = np.linspace(0.01, 5, 50)
        np.testing.assert_array_equal(surrogate_grad(u), surrogate_grad(-u))

    def test_smooth_spike_derivative_is_scaled_surrogate(self):
        # the oracle's sigmoid twin is differentiated by production's surrogate
        u = np.linspace(-2, 2, 101)
        _, deriv = smooth_spike(u)
        np.testing.assert_allclose(deriv, 0.5 * SURROGATE_SLOPE * surrogate_grad(u))

    def test_bitwise_equals_formula_in_place_or_not(self):
        rng = np.random.default_rng(16)
        u = np.concatenate([rng.standard_normal(200) * 3.0, [0.0, -0.0, 1e-300, -1e150]])
        expected = 1.0 / (1.0 + 100.0 * np.abs(u)) ** 2
        kept = u.copy()
        assert surrogate_grad(u).tobytes() == expected.tobytes()
        assert u.tobytes() == kept.tobytes()
        assert surrogate_grad(u, out=u) is u
        assert u.tobytes() == expected.tobytes()
        scalar = surrogate_grad(-2.5)
        assert isinstance(scalar, np.float64) and np.ndim(scalar) == 0
        assert scalar == 1.0 / (1.0 + 100.0 * 2.5) ** 2


# (qat, lif, steps) of each case
ORACLE_CASES = {
    "hard": (None, LifParams(), 4),
    "qat88": (QatConfig(8, 8), LifParams.shift_friendly(), 4),
    "qat66": (QatConfig(6, 6), LifParams.shift_friendly(), 4),
    # a reset voltage below the state grid saturates the voltage too
    "qat66_v_saturates": (QatConfig(6, 6), LifParams(alpha_v=0.5, alpha_i=0.25, v_r=-6.0), 4),
    # a faster voltage lets units fire within the one step
    "steps1": (None, LifParams(alpha_v=0.5), 1),
    "steps1_qat": (QatConfig(8, 8), LifParams(alpha_v=0.5, alpha_i=0.25), 1),
}


def oracle_setup(qat, lif, steps, seed=17):
    """A model that spikes and saturates enough for every branch to matter."""
    model = tiny_model(n_tap=5, hidden=12, steps=steps, seed=seed, scale=4.0, lif=lif)
    model.qat = qat
    model.b_fc1[:] += 0.5
    windows, labels = random_batch(model, 96, seed=seed + 1)
    return model, windows, labels


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_loss_and_grads_bitwise_equal_the_allocating_reference(case):
    qat, lif, steps = ORACLE_CASES[case]
    model, windows, labels = oracle_setup(qat, lif, steps)
    ref_loss, ref_grads = reference_loss_and_grads(windows, labels, model)
    # fresh arrays; then one Workspace sized first by a smaller batch, then reused
    workspace = Workspace()
    loss_and_grads(windows[:40], labels[:40], model, workspace=workspace)
    for ws in (None, workspace, workspace):
        loss, grads = loss_and_grads(windows, labels, model, workspace=ws)
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name
    # the inference forward (no tape) gives the same logits too
    eff = model.effective_weights()
    logits, _ = forward(windows, eff, model.config, lif, qat)
    ref_logits, ref_tape = reference_forward(windows, eff, model.config, lif, qat)
    assert logits.tobytes() == ref_logits.tobytes()
    # units fire at some (row, unit, step) positions and not at others, so the
    # reset and leak terms of the backward both carry gradient
    assert 0 < np.sum(ref_tape["s"]) < np.size(ref_tape["s"])
    if qat is not None:  # which straight-through masks this case exercises
        _, tape = forward(windows, eff, model.config, lif, qat, keep=True)
        clamped = {name for name in "hiv" if not all(np.all(m) for m in tape[name])}
        assert clamped == {"h", "i", "v"} if case == "qat66_v_saturates" else "h" in clamped


@pytest.mark.parametrize("case", ["hard", "qat88", "qat66"])
def test_training_step_writes_no_input(case):
    # forward and loss_and_grads work in place on arrays of their own only
    qat, lif, steps = ORACLE_CASES[case]
    model, windows, labels = oracle_setup(qat, lif, steps)
    params = model.parameters()
    weights = model.effective_weights()
    before = {name: p.tobytes() for name, p in params.items()}
    weights_before = {name: (id(w), w.tobytes()) for name, w in weights.items()}
    windows_before = windows.tobytes()
    for workspace in (None, Workspace()):
        for keep in (False, True):
            forward(windows, weights, model.config, lif, qat, keep, workspace)
        loss_and_grads(windows, labels, model, workspace)
    assert windows.tobytes() == windows_before
    assert {name: (id(w), w.tobytes()) for name, w in weights.items()} == weights_before
    assert {name: p.tobytes() for name, p in model.parameters().items()} == before


def test_lif_step_into_its_own_state_equals_the_reference():
    rng = np.random.default_rng(19)
    params = LifParams(alpha_v=0.3, alpha_i=0.4, v_r=-0.1)
    v, i, drive = (rng.standard_normal((5, 7)) for _ in range(3))
    v[0, 0] = -0.0
    expected = reference_lif_step(v, i, drive, params)
    kept = [a.tobytes() for a in (v, i, drive)]
    fresh = lif_step(v, i, drive, params, out=[np.empty_like(v) for _ in range(4)])
    assert [a.tobytes() for a in (v, i, drive)] == kept
    out = (v, i, np.empty_like(v), np.empty_like(v))
    in_place = lif_step(v, i, drive, params, out=out)
    assert all(got is want for got, want in zip(in_place, out))
    for ref, a, b in zip(expected, fresh, in_place):
        assert a.tobytes() == ref.tobytes() and b.tobytes() == ref.tobytes()


def test_workspace_keeps_an_array_per_key_and_shape():
    workspace = Workspace()
    a = workspace("a", (3, 4))
    assert workspace("a", (3, 4)) is a and a.dtype == float
    assert workspace("b", (3, 4)) is not a
    b = workspace("a", (2, 4))
    assert b.shape == (2, 4) and workspace("a", (2, 4)) is b


class TestGradients:
    def test_fc3_gradient_closed_form(self):
        # analytic oracle: dL/dW3 = (softmax - onehot)^T @ accumulated spikes
        model = tiny_model(hidden=6, steps=4, seed=2, scale=3.0)
        windows, labels = random_batch(model, 32, seed=3)
        loss, grads = loss_and_grads(windows, labels, model)

        batch = windows.shape[0]
        spikes_sum = np.zeros((batch, model.config.hidden))
        z = np.zeros((batch, 4))
        for b in range(batch):
            logits, tape = forward(windows[b : b + 1], model.parameters(), model.config,
                                   model.lif, keep=True)
            z[b] = logits[0]
            spikes_sum[b] = sum(tape["s"])[0]
        zs = z - z.max(axis=1, keepdims=True)
        soft = np.exp(zs) / np.sum(np.exp(zs), axis=1, keepdims=True)
        soft[np.arange(batch), labels] -= 1.0
        expected = (soft / batch).T @ spikes_sum
        np.testing.assert_allclose(grads["w_fc3"], expected, rtol=1e-12, atol=1e-12)

    def test_bptt_matches_finite_differences_on_smooth_twin(self):
        # finite-difference oracle on the sigmoid twin (4 neurons, T=3, N_I=8)
        self.check_finite_differences(LifParams())

    def check_finite_differences(self, lif):
        model = tiny_model(n_tap=1, hidden=4, steps=3, seed=4, scale=2.5, lif=lif)
        model.b_fc1[:] += 0.5  # park some units near threshold
        windows, labels = random_batch(model, 6, seed=5)
        self.assert_grads_match_finite_differences(model, windows, labels)

    def test_qat_recurrence_sees_the_masked_drive_gradient(self, monkeypatch):
        # With a clamp-only quantizer the straight-through gradient is exact,
        # so the oracle's QAT backward must match finite differences too (and
        # production's equals the oracle's). Large recurrent weights saturate
        # the drive at steps t >= 1 where the current is not saturated: the
        # gradient fed back through fc2 must carry the drive's mask, as the fc2
        # gradient does.
        def clamp_only(x, bits, scale=None):
            x = np.asarray(x, dtype=float)
            if scale is None:
                scale = pow2_scale(float(np.max(np.abs(x))) if x.size else 0.0, bits)
            lo, hi = -(2 ** (bits - 1)) * scale, (2 ** (bits - 1) - 1) * scale
            return np.clip(x, lo, hi), (x >= lo) & (x <= hi)

        monkeypatch.setitem(globals(), "reference_fake_quantize_with_mask", clamp_only)
        model = tiny_model(n_tap=1, hidden=4, steps=3, seed=37, scale=8.0)
        model.w_fc2[:] *= 3.0
        model.b_fc1[:] += 0.5
        windows, labels = random_batch(model, 6, seed=5)
        qat = model.qat = QatConfig(weight_bits=8, state_bits=6)
        _, tape = reference_forward(windows, model.parameters(), model.config, model.lif, qat)
        drive_only = sum(int(np.sum((tape["h"][t] == 0) & (tape["i"][t] == 1)))
                         for t in range(1, model.config.steps))
        assert drive_only >= 1
        self.assert_grads_match_finite_differences(model, windows, labels)

    @staticmethod
    def assert_grads_match_finite_differences(model, windows, labels):
        # on the oracle's sigmoid twin, whose reset is differentiable too
        _, grads = reference_loss_and_grads(windows, labels, model, smooth=True)

        eps = 1e-5
        for name in model.PARAM_NAMES:
            param = getattr(model, name)
            fd = np.zeros_like(param)
            flat = param.reshape(-1)
            fd_flat = fd.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _ = reference_loss_and_grads(windows, labels, model, smooth=True)
                flat[idx] = orig - eps
                lm, _ = reference_loss_and_grads(windows, labels, model, smooth=True)
                flat[idx] = orig
                fd_flat[idx] = (lp - lm) / (2 * eps)
            err = np.linalg.norm(grads[name] - fd) / max(np.linalg.norm(fd), 1e-12)
            assert err < 1e-4, f"{name}: relative error {err:.2e}"

    def test_recurrence_path_exercised(self):
        # zeroing fc2 must change the fc1 gradient (non-degeneracy)
        model = tiny_model(hidden=8, steps=4, seed=6, scale=3.0)
        model.b_fc1[:] += 0.8
        windows, labels = random_batch(model, 64, seed=7)
        _, grads_full = loss_and_grads(windows, labels, model)
        model.w_fc2[:] = 0.0
        _, grads_zeroed = loss_and_grads(windows, labels, model)
        assert not np.allclose(grads_full["w_fc1"], grads_zeroed["w_fc1"])

    def test_uniform_logits_loss_is_ln4(self):
        model = tiny_model(seed=8)
        for name in model.PARAM_NAMES:
            getattr(model, name)[:] = 0.0
        windows, labels = random_batch(model, 50, seed=9)
        loss, _ = loss_and_grads(windows, labels, model)
        assert abs(loss - math.log(4.0)) < 1e-12

    def test_label_out_of_range_rejected(self):
        model = tiny_model()
        windows, labels = random_batch(model, 4)
        with pytest.raises(ValueError):
            loss_and_grads(windows, labels + 4, model)

    def test_batched_forward_matches_reference(self):
        # the trainer's loss is that of the logits inference computes window by
        # window, with and without QAT and with non-default LIF constants
        cases = [(None, LifParams()), (None, LifParams(alpha_v=0.3, alpha_i=0.4, v_r=-0.1)),
                 (QatConfig(weight_bits=8, state_bits=8), LifParams.shift_friendly())]
        for qat, lif in cases:
            cfg = TopologyConfig(n_tap=5, hidden=10, steps=4)
            model = EqualizerModel.initialize(
                cfg, lif, EncoderConfig(0.0, 1.0), np.random.default_rng(10), qat=qat
            )
            for name in model.PARAM_NAMES:
                getattr(model, name)[:] *= 4.0
            windows, labels = random_batch(model, 16, seed=11)
            loss, _ = loss_and_grads(windows, labels, model)
            eff = model.effective_weights()
            z = np.array([forward(windows[b : b + 1], eff, cfg, lif, qat)[0][0]
                          for b in range(16)])
            zs = z - z.max(axis=1, keepdims=True)
            ref = float(np.mean(
                np.log(np.sum(np.exp(zs), axis=1)) - zs[np.arange(16), labels]
            ))
            assert abs(loss - ref) < 1e-12


class TestAdam:
    def test_zero_gradient_no_move(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.init(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        state = AdamState.init(params)
        adam_step(params, {"w": np.array([3.7])}, state, lr=0.01)
        # bias-corrected first step moves by ~lr in the -sign(g) direction
        assert abs(params["w"][0] + 0.01) < 1e-6

    def test_trajectory_deterministic(self):
        def run():
            rng = np.random.default_rng(12)
            params = {"w": rng.standard_normal(5)}
            state = AdamState.init(params)
            for _ in range(20):
                adam_step(params, {"w": rng.standard_normal(5)}, state, lr=1e-3)
            return params["w"]

        np.testing.assert_array_equal(run(), run())


class TestFakeQuantize:
    def test_grid_values_unchanged(self):
        scale = 2.0 ** -6
        x = np.array([-1.0, 0.0, 19 * scale, 0.5])
        np.testing.assert_array_equal(fake_quantize(x, 8, scale), x)

    def test_saturation(self):
        scale = 2.0 ** -6
        out = fake_quantize(np.array([100.0, -100.0]), 8, scale)
        np.testing.assert_allclose(out, [127 * scale, -128 * scale])

    def test_error_within_half_step_sweep(self):
        # exhaustive sweep oracle over the representable range
        bits = 6
        scale = 2.0 ** -3
        lo, hi = -(2 ** (bits - 1)) * scale, (2 ** (bits - 1) - 1) * scale
        sweep = np.linspace(lo, hi, 4001)
        err = np.abs(fake_quantize(sweep, bits, scale) - sweep)
        assert np.max(err) <= scale / 2 + 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(1000) * 2.0
        for bits in (4, 6, 8):
            q = fake_quantize(x, bits)
            np.testing.assert_array_equal(fake_quantize(q, bits), q)

    def test_pow2_scale_fits(self):
        for bits in (4, 6, 8):
            for max_abs in (0.3, 1.0, 1.9999, 2.0, 17.0):
                scale = pow2_scale(max_abs, bits)
                qmax = 2 ** (bits - 1) - 1
                assert max_abs <= qmax * scale
                assert max_abs > qmax * scale / 2

    def test_scalar_input(self):
        assert fake_quantize(0.3, 8, 2.0 ** -5) == 10 * 2.0 ** -5

    def test_scale_off_the_power_of_two_grid_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            fake_quantize(np.ones(3), 8, 0.3)

    def test_masked_scale_off_the_power_of_two_grid_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            fake_quantize_with_mask(np.ones(3), 8, 0.3)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False), max_size=12),
       ties=st.lists(st.integers(-300, 300), max_size=6),
       exponent=st.integers(-1074, 1023), bits=st.integers(2, 32))
def test_fake_quantize_bitwise_equals_reference(values, ties, exponent, bits):
    # the reference formula, dividing by the step, for fake_quantize and the
    # masked quantizer's values and mask, also in place; ties are (2k+1)/2
    # steps, and the exponent reaches float64's smallest subnormal step, 2^-1074
    scale = math.ldexp(1.0, exponent)
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    with np.errstate(over="ignore"):  # huge |x| over a tiny step overflows to inf
        tied = np.ldexp(2.0 * np.array(ties) + 1.0, exponent - 1)
        x = np.concatenate([values, [0.0, -0.0, 1e308, -1e308], tied])
        ints = np.rint(x / scale)
        expected = np.minimum(np.maximum(ints, lo), hi) * scale
        expected_mask = (ints >= lo) & (ints <= hi)
        got = fake_quantize(x, bits, scale)
        masked, mask = fake_quantize_with_mask(x, bits, scale)
        in_place = x.copy()
        in_place_q, in_place_mask = fake_quantize_with_mask(in_place, bits, scale, out=in_place)
    assert got.tobytes() == expected.tobytes()
    assert masked.tobytes() == expected.tobytes()
    assert mask.dtype == bool and np.array_equal(mask, expected_mask)
    assert in_place_q is in_place and in_place.tobytes() == expected.tobytes()
    assert np.array_equal(in_place_mask, expected_mask)


class TestTrainLoop:
    def desk_cfg(self, **kw):
        defaults = dict(
            learning_rate=1e-3, epochs=1, batches_per_epoch=8, batch_size=256, seed=100,
        )
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_zero_learning_rate_leaves_model_unchanged(self):
        topo = TopologyConfig(n_tap=5, hidden=6, steps=2)
        cfg = self.desk_cfg(learning_rate=0.0, batches_per_epoch=2)
        model, _ = train(DESK_CHANNEL, topo, cfg)
        fresh = EqualizerModel.initialize(topo, LifParams(), model.encoder,
                                          derive_rng(cfg.seed, "init"))
        for name in model.PARAM_NAMES:
            np.testing.assert_array_equal(getattr(model, name), getattr(fresh, name))

    def test_training_reduces_loss(self):
        topo = TopologyConfig(n_tap=5, hidden=8, steps=3)
        cfg = self.desk_cfg(batches_per_epoch=30, batch_size=512)
        _, log = train(DESK_CHANNEL, topo, cfg)
        first = np.mean([row[1] for row in log[:5]])
        last = np.mean([row[1] for row in log[-5:]])
        assert last < first

    def test_bit_reproducible(self):
        topo = TopologyConfig(n_tap=3, hidden=4, steps=2)
        cfg = self.desk_cfg(batches_per_epoch=3, batch_size=128)
        m1, log1 = train(DESK_CHANNEL, topo, cfg)
        m2, log2 = train(DESK_CHANNEL, topo, cfg)
        assert log1 == log2
        for name in m1.PARAM_NAMES:
            np.testing.assert_array_equal(getattr(m1, name), getattr(m2, name))

    @pytest.mark.parametrize("m", [1, 3])
    def test_non_pam4_topology_rejected(self, m):
        # the link is PAM-4 only: a topology of another order never reaches train
        with pytest.raises(ValueError, match=rf"bits_per_symbol={m}.*channel\.BITS_PER_SYMBOL"):
            TopologyConfig(n_tap=3, bits_per_symbol=m, hidden=4, steps=2)

    def test_descent_on_fixed_batch(self):
        # sanity: 10 small Adam steps on one fixed batch never increase the loss
        model = tiny_model(n_tap=5, hidden=8, steps=3, seed=14)
        windows, labels = random_batch(model, 256, seed=15)
        params = model.parameters()
        state = AdamState.init(params)
        losses = []
        for _ in range(11):
            loss, grads = loss_and_grads(windows, labels, model)
            losses.append(loss)
            adam_step(params, grads, state, lr=1e-4)
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9

    def test_divergence_aborts_with_diagnostic(self, monkeypatch):
        import snndfe.train as train_mod

        def nan_loss(windows, labels, model, workspace=None):
            return float("nan"), {k: np.zeros_like(p) for k, p in model.parameters().items()}

        monkeypatch.setattr(train_mod, "loss_and_grads", nan_loss)
        topo = TopologyConfig(n_tap=3, hidden=4, steps=2)
        with pytest.raises(TrainingDiverged, match="batch 0"):
            train(DESK_CHANNEL, topo, self.desk_cfg(batches_per_epoch=2, batch_size=64))


# SHA-256 of train()'s loss log, its (loss, grad_norm) rows as float64, and of
# its final parameters in PARAM_NAMES order, on (5, 8, 3), 10 batches of 128,
# seed 3. Recorded with OpenBLAS on x86-64; training is deterministic there, so
# any change to its arithmetic, settings or data shows here.
TRAIN_DIGESTS = {
    "float": ("3db0a5c08a94f4338b35a49b39e74d999eb72b8492bce0e0f38bb8bd867fb01e",
              "e2ed5021e21419111094319f4d251f4c8d6635e034e5d2b5f437efe1c00003c9"),
    "qat88": ("9fd9ce02a4cdbf6eb7c5dfd3986f73ef0446b844d89d0ae09410f7e728695440",
              "af79e9f63aca4d34853aeb93a492ae650df7d1c7dae21e47e08f1907b456ed30"),
}


@pytest.mark.parametrize("mode", sorted(TRAIN_DIGESTS))
def test_train_output_is_pinned(mode):
    qat = QatConfig(8, 8) if mode == "qat88" else None
    cfg = TrainConfig(batches_per_epoch=10, batch_size=128, qat=qat, seed=3)
    model, log = train(DESK_CHANNEL, TopologyConfig(n_tap=5, hidden=8, steps=3), cfg)
    assert [row[0] for row in log] == list(range(10))
    losses = np.array([row[1:] for row in log])
    params = b"".join(getattr(model, name).tobytes() for name in model.PARAM_NAMES)
    digests = (hashlib.sha256(losses.tobytes()).hexdigest(), hashlib.sha256(params).hexdigest())
    assert digests == TRAIN_DIGESTS[mode]
