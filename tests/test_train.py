import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndfe.channel import ChannelConfig
from snndfe.equalizer import EncoderConfig, EqualizerModel, TopologyConfig, forward
from snndfe.lif import LifParams
from snndfe.quant import QatConfig, fake_quantize, pow2_scale
from snndfe.train import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    loss_and_grads,
    smooth_spike,
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


class TestSurrogate:
    def test_peak_at_zero(self):
        assert surrogate_grad(0.0) == 1.0

    def test_monotone_decay_to_zero(self):
        u = np.linspace(0, 50, 200)
        vals = surrogate_grad(u, 100.0)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-6

    def test_symmetric(self):
        u = np.linspace(0.01, 5, 50)
        np.testing.assert_array_equal(surrogate_grad(u), surrogate_grad(-u))

    def test_smooth_spike_derivative_is_scaled_surrogate(self):
        u = np.linspace(-2, 2, 101)
        _, deriv = smooth_spike(u, 37.0)
        np.testing.assert_allclose(deriv, 0.5 * 37.0 * surrogate_grad(u, 37.0))


class TestGradients:
    def test_fc3_gradient_closed_form(self):
        # analytic oracle: dL/dW3 = (softmax - onehot)^T @ accumulated spikes
        model = tiny_model(hidden=6, steps=4, seed=2, scale=3.0)
        windows, labels = random_batch(model, 32, seed=3)
        cfg = TrainConfig(surrogate_slope=100.0, batch_size=1, batches_per_epoch=1, epochs=1)
        loss, grads = loss_and_grads(windows, labels, model, cfg)

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

    def test_bptt_matches_finite_differences_with_leak_potential(self):
        # v_leak shifts the forward but not dv_pre/dv = 1 - alpha_v
        self.check_finite_differences(LifParams(v_leak=0.3))

    def check_finite_differences(self, lif):
        model = tiny_model(n_tap=1, hidden=4, steps=3, seed=4, scale=2.5, lif=lif)
        model.b_fc1[:] += 0.5  # park some units near threshold
        windows, labels = random_batch(model, 6, seed=5)
        cfg = TrainConfig(surrogate_slope=100.0, batch_size=1, batches_per_epoch=1, epochs=1)
        self.assert_grads_match_finite_differences(model, windows, labels, cfg)

    def test_qat_recurrence_sees_the_masked_drive_gradient(self, monkeypatch):
        # With a clamp-only quantizer the straight-through gradient is exact,
        # so QAT's backward must match finite differences too. Large recurrent
        # weights saturate the drive at steps t >= 1 where the current is not
        # saturated: the gradient fed back through fc2 must carry the drive's
        # mask, as the fc2 gradient does.
        import snndfe.equalizer as equalizer_mod
        import snndfe.train as train_mod

        def clamp_only(x, bits, scale=None):
            x = np.asarray(x, dtype=float)
            if scale is None:
                scale = pow2_scale(float(np.max(np.abs(x))) if x.size else 0.0, bits)
            lo, hi = -(2 ** (bits - 1)) * scale, (2 ** (bits - 1) - 1) * scale
            return np.clip(x, lo, hi), ((x >= lo) & (x <= hi)).astype(float), scale

        monkeypatch.setattr(equalizer_mod, "fake_quantize_with_mask", clamp_only)
        monkeypatch.setattr(train_mod, "fake_quantize_with_mask", clamp_only)
        model = tiny_model(n_tap=1, hidden=4, steps=3, seed=37, scale=8.0)
        model.w_fc2[:] *= 3.0
        model.b_fc1[:] += 0.5
        windows, labels = random_batch(model, 6, seed=5)
        qat = QatConfig(weight_bits=8, state_bits=6)
        cfg = TrainConfig(surrogate_slope=100.0, batch_size=1, batches_per_epoch=1, epochs=1,
                          qat=qat)
        _, tape = forward(windows, model.parameters(), model.config, model.lif, qat, keep=True)
        drive_only = sum(int(np.sum((tape["h"][t] == 0) & (tape["i"][t] == 1)))
                         for t in range(1, model.config.steps))
        assert drive_only >= 1
        self.assert_grads_match_finite_differences(model, windows, labels, cfg)

    @staticmethod
    def assert_grads_match_finite_differences(model, windows, labels, cfg):
        _, grads = loss_and_grads(windows, labels, model, cfg, spike_mode="smooth")

        eps = 1e-5
        for name in model.PARAM_NAMES:
            param = getattr(model, name)
            fd = np.zeros_like(param)
            flat = param.reshape(-1)
            fd_flat = fd.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _ = loss_and_grads(windows, labels, model, cfg, spike_mode="smooth")
                flat[idx] = orig - eps
                lm, _ = loss_and_grads(windows, labels, model, cfg, spike_mode="smooth")
                flat[idx] = orig
                fd_flat[idx] = (lp - lm) / (2 * eps)
            err = np.linalg.norm(grads[name] - fd) / max(np.linalg.norm(fd), 1e-12)
            assert err < 1e-4, f"{name}: relative error {err:.2e}"

    def test_recurrence_path_exercised(self):
        # zeroing fc2 must change the fc1 gradient (non-degeneracy)
        model = tiny_model(hidden=8, steps=4, seed=6, scale=3.0)
        model.b_fc1[:] += 0.8
        windows, labels = random_batch(model, 64, seed=7)
        cfg = TrainConfig()
        _, grads_full = loss_and_grads(windows, labels, model, cfg)
        model.w_fc2[:] = 0.0
        _, grads_zeroed = loss_and_grads(windows, labels, model, cfg)
        assert not np.allclose(grads_full["w_fc1"], grads_zeroed["w_fc1"])

    def test_uniform_logits_loss_is_ln4(self):
        model = tiny_model(seed=8)
        for name in model.PARAM_NAMES:
            getattr(model, name)[:] = 0.0
        windows, labels = random_batch(model, 50, seed=9)
        loss, _ = loss_and_grads(windows, labels, model, TrainConfig())
        assert abs(loss - math.log(4.0)) < 1e-12

    def test_label_out_of_range_rejected(self):
        model = tiny_model()
        windows, labels = random_batch(model, 4)
        with pytest.raises(ValueError):
            loss_and_grads(windows, labels + 4, model, TrainConfig())

    def test_batched_forward_matches_reference(self):
        # the trainer's loss is that of the logits inference computes window by
        # window, with and without QAT and with a nonzero leak potential
        cases = [(None, LifParams()), (None, LifParams(v_leak=0.3)),
                 (QatConfig(weight_bits=8, state_bits=8), LifParams.shift_friendly())]
        for qat, lif in cases:
            cfg = TopologyConfig(n_tap=5, hidden=10, steps=4)
            model = EqualizerModel.initialize(
                cfg, lif, EncoderConfig(0.0, 1.0), np.random.default_rng(10), qat=qat
            )
            for name in model.PARAM_NAMES:
                getattr(model, name)[:] *= 4.0
            windows, labels = random_batch(model, 16, seed=11)
            tc = TrainConfig(qat=qat)
            loss, _ = loss_and_grads(windows, labels, model, tc)
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


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False), max_size=12),
       ties=st.lists(st.integers(-300, 300), max_size=6),
       exponent=st.integers(-1074, 1023), bits=st.integers(2, 32))
def test_fake_quantize_bitwise_equals_reference(values, ties, exponent, bits):
    # the reference formula, dividing by the step; ties are (2k+1)/2 steps, and
    # the exponent reaches float64's smallest subnormal step, 2^-1074
    scale = math.ldexp(1.0, exponent)
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    with np.errstate(over="ignore"):  # huge |x| over a tiny step overflows to inf
        tied = np.ldexp(2.0 * np.array(ties) + 1.0, exponent - 1)
        x = np.concatenate([values, [0.0, -0.0, 1e308, -1e308], tied])
        expected = np.minimum(np.maximum(np.rint(x / scale), lo), hi) * scale
        got = fake_quantize(x, bits, scale)
    assert got.tobytes() == expected.tobytes()


class TestTrainLoop:
    def desk_cfg(self, **kw):
        defaults = dict(
            learning_rate=1e-3, epochs=1, batches_per_epoch=8, batch_size=256,
            train_snr_db=17.0, seed=100,
        )
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_zero_learning_rate_leaves_model_unchanged(self):
        topo = TopologyConfig(n_tap=5, hidden=6, steps=2)
        cfg = self.desk_cfg(learning_rate=0.0, batches_per_epoch=2)
        model, _ = train(DESK_CHANNEL, topo, cfg)
        from snndfe.harness import derive_rng
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
        topo = TopologyConfig(n_tap=3, bits_per_symbol=m, hidden=4, steps=2)
        with pytest.raises(ValueError, match=rf"bits_per_symbol={m}.*channel\.BITS_PER_SYMBOL"):
            train(DESK_CHANNEL, topo, self.desk_cfg(batches_per_epoch=1, batch_size=32))

    def test_descent_on_fixed_batch(self):
        # sanity: 10 small Adam steps on one fixed batch never increase the loss
        model = tiny_model(n_tap=5, hidden=8, steps=3, seed=14)
        windows, labels = random_batch(model, 256, seed=15)
        cfg = TrainConfig(seed=14)
        params = model.parameters()
        state = AdamState.init(params)
        losses = []
        for _ in range(11):
            loss, grads = loss_and_grads(windows, labels, model, cfg)
            losses.append(loss)
            adam_step(params, grads, state, lr=1e-4)
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9

    def test_divergence_aborts_with_diagnostic(self, monkeypatch):
        import snndfe.train as train_mod

        def nan_loss(windows, labels, model, cfg, spike_mode="hard"):
            return float("nan"), {k: np.zeros_like(p) for k, p in model.parameters().items()}

        monkeypatch.setattr(train_mod, "loss_and_grads", nan_loss)
        topo = TopologyConfig(n_tap=3, hidden=4, steps=2)
        with pytest.raises(TrainingDiverged, match="batch 0"):
            train(DESK_CHANNEL, topo, self.desk_cfg(batches_per_epoch=2, batch_size=64))
