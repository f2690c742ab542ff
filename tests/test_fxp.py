import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndfe.equalizer import (
    EncoderConfig,
    EqualizerModel,
    TopologyConfig,
    equalize_stream,
    one_hot_windows,
)
from snndfe.fxp import (
    ConversionError,
    FxpFormats,
    FxpLifSpec,
    convert,
    fxp_forward,
    fxp_lif_step,
    load_fxp_model,
    save_fxp_model,
)
from snndfe.lif import LifParams, lif_step
from snndfe.quant import QatConfig, fake_quantize
from test_equalizer import drop_from_container


def make_float_model(n_tap=5, hidden=8, steps=3, seed=0, scale=3.0, qat_bits=8):
    cfg = TopologyConfig(n_tap=n_tap, hidden=hidden, steps=steps)
    model = EqualizerModel.initialize(
        cfg, LifParams.shift_friendly(), EncoderConfig(0.0, 1.0),
        np.random.default_rng(seed),
        qat=QatConfig(weight_bits=qat_bits, state_bits=qat_bits),
    )
    for name in model.PARAM_NAMES:
        getattr(model, name)[:] *= scale
    return model


def random_windows(model, n, seed=1):
    rng = np.random.default_rng(seed)
    cfg = model.config
    received = rng.uniform(0.0, 1.0, (n, cfg.history + 1))
    decisions = rng.integers(0, cfg.n_classes, (n, cfg.history))
    return one_hot_windows(model.encoder.bin_indices(received), decisions, cfg.bits_per_symbol)


def fc3_grid(fm):
    """Scale of fxp_forward's integer logits: value = int * fc3_grid(fm)."""
    return 2.0 ** -max(fm.fracs["w_fc3"], fm.fracs["b_fc3"])


def float_twin_forward(windows, fm):
    """Float64 simulation of the identical quantized arithmetic over a batch of
    windows (B, n_input): the logits (B, n_classes) as values (oracle)."""
    deq = {k: fm.ints[k].astype(float) * 2.0 ** -fm.fracs[k] for k in fm.ints}
    f = fm.fracs
    f_a = max(f["w_fc0"], f["b_fc0"])
    f_h = max(f["w_fc1"] + f_a, f["w_fc2"], f["b_fc1"])
    f_z = max(f["w_fc3"], f["b_fc3"])
    fs = fm.state_fmt.frac_bits
    s_lo, s_hi = fm.state_fmt.min_int * 2.0 ** -fs, fm.state_fmt.max_int * 2.0 ** -fs

    def acc_clip(val, frac):
        return np.clip(val, fm.acc_min * 2.0 ** -frac, fm.acc_max * 2.0 ** -frac)

    def floor_shift(val, k):
        # states live on the 2^-fs grid; (int >> k) * 2^-fs
        return np.floor(val * 2.0 ** (fs - k)) * 2.0 ** -fs

    def requant_half_up(val):
        if f_h <= fs:
            return val
        return np.floor(val * 2.0 ** fs + 0.5) * 2.0 ** -fs

    a_bias = deq["b_fc0"]
    a_window = acc_clip(windows @ deq["w_fc0"].T + a_bias, f_a)
    v = np.zeros((windows.shape[0], fm.config.hidden))
    i = np.zeros_like(v)
    spikes = np.zeros_like(v)
    z = np.zeros((windows.shape[0], fm.config.n_classes))
    v_th = fm.v_th_int * 2.0 ** -fs
    v_r = fm.v_r_int * 2.0 ** -fs
    for t in range(fm.config.steps):
        a_t = a_window if t == 0 else a_bias
        h = acc_clip(a_t @ deq["w_fc1"].T + deq["b_fc1"] + spikes @ deq["w_fc2"].T, f_h)
        drive = np.clip(requant_half_up(h), s_lo, s_hi)
        i = np.clip(i - floor_shift(i, fm.k_i) + drive, s_lo, s_hi)
        v_pre = np.clip(v - floor_shift(v, fm.k_v) + floor_shift(i, fm.k_v), s_lo, s_hi)
        spikes = (v_pre >= v_th).astype(float)
        v = np.where(spikes > 0, v_r, v_pre)
        z = acc_clip(z + spikes @ deq["w_fc3"].T + deq["b_fc3"], f_z)
    return z


class TestConvert:
    def test_fake_quantized_model_converts_exactly(self):
        model = make_float_model(seed=2)
        for name in model.PARAM_NAMES:
            arr = getattr(model, name)
            arr[:] = fake_quantize(arr, 8)
        fm = convert(model, FxpFormats(weight_bits=8, state_bits=8))
        for name in model.PARAM_NAMES:
            np.testing.assert_array_equal(fm.dequant(name), getattr(model, name))

    def test_single_weight_rounding_example(self):
        model = make_float_model(n_tap=1, hidden=1, steps=1, scale=0.0)
        # max |w_fc0| = 1.5 pins the fc0 grid at 6 fractional bits
        model.w_fc0[0, :2] = [0.30, 1.5]
        fm = convert(model, FxpFormats(weight_bits=8, state_bits=8))
        assert fm.fracs["w_fc0"] == 6
        assert fm.ints["w_fc0"][0, 0] == 19
        err = abs(fm.dequant("w_fc0")[0, 0] - 0.30)
        assert err == pytest.approx(0.003125)
        assert err <= 2.0 ** -6 / 2

    def test_all_zero_model(self):
        model = make_float_model(scale=0.0)
        fm = convert(model, FxpFormats())
        for name in model.PARAM_NAMES:
            np.testing.assert_array_equal(fm.ints[name], np.zeros_like(fm.ints[name]))

    def test_warns_without_matching_qat(self):
        model = make_float_model()
        model.qat = None
        with pytest.warns(UserWarning, match="not QAT-trained"):
            convert(model, FxpFormats())
        model.qat = QatConfig(weight_bits=4, state_bits=4)
        with pytest.warns(UserWarning, match="do not match"):
            convert(model, FxpFormats(weight_bits=8, state_bits=8))

    def test_rejects_alignment_overflow(self):
        # a tiny fc0 bias pins its grid at 46 fractional bits, so w_fc0 @ x
        # would be shifted left by 43 bits into a 32-bit accumulator
        model = make_float_model(seed=3)
        model.b_fc0[:] = 1e-12
        with pytest.raises(ConversionError, match="fc0"):
            convert(model, FxpFormats())

    def test_rejects_accumulator_narrower_than_worst_case(self):
        model = make_float_model(seed=9, scale=6.0)
        with pytest.raises(ConversionError, match="hidden drive"):
            convert(model, FxpFormats(acc_bits=16))

    def test_rejects_non_shift_decay(self):
        cfg = TopologyConfig(n_tap=3, hidden=2, steps=1)
        model = EqualizerModel.initialize(
            cfg, LifParams(alpha_v=0.1, alpha_i=0.2), EncoderConfig(0.0, 1.0),
            np.random.default_rng(0), qat=QatConfig(),
        )
        with pytest.raises(ConversionError, match="alpha_v"):
            convert(model, FxpFormats())


class TestFxpLifStep:
    SPEC = FxpLifSpec(k_v=3, k_i=2, v_th_int=32, v_r_int=0,
                      state_min=-128, state_max=127)

    def step(self, v, i, drive):
        return fxp_lif_step(
            np.array([v], dtype=np.int64), np.array([i], dtype=np.int64),
            np.array([drive], dtype=np.int64), self.SPEC,
        )

    def test_voltage_shift_decay(self):
        spec = FxpLifSpec(k_v=3, k_i=2, v_th_int=100, v_r_int=0,
                          state_min=-128, state_max=127)
        v, i, s = fxp_lif_step(np.array([64]), np.array([0]), np.array([0]), spec)
        assert v[0] == 64 - 8 and i[0] == 0 and s[0] == 0

    def test_current_shift_decay(self):
        _, i, _ = self.step(0, 4, 0)
        assert i[0] == 3

    def test_negative_floor_shift(self):
        spec = FxpLifSpec(k_v=3, k_i=2, v_th_int=100, v_r_int=0,
                          state_min=-128, state_max=127)
        v, _, _ = fxp_lif_step(np.array([-8]), np.array([0]), np.array([0]), spec)
        assert v[0] == -8 - (-8 >> 3) + 0  # -8 >> 3 == -1, so v' = -7
        assert v[0] == -7

    def test_shift_decay_matches_float_on_exact_multiples(self):
        # alpha = 2^-k float dynamics coincide with shifts when nothing rounds
        rng = np.random.default_rng(3)
        params = LifParams(alpha_v=0.125, alpha_i=0.25, v_th=96.0, v_r=0.0)
        spec = FxpLifSpec(k_v=3, k_i=2, v_th_int=96, v_r_int=0,
                          state_min=-(2 ** 20), state_max=2 ** 20 - 1)
        v = (rng.integers(-20, 20, 16) * 32).astype(np.int64)
        i = (rng.integers(-20, 20, 16) * 32).astype(np.int64)
        drive = (rng.integers(-4, 4, 16) * 8).astype(np.int64)
        vi, ii, si = fxp_lif_step(v, i, drive, spec)
        fv, fi, fs, _ = lif_step(v.astype(float), i.astype(float), drive.astype(float), params)
        np.testing.assert_array_equal(ii.astype(float), fi)
        np.testing.assert_array_equal(vi.astype(float), fv)
        np.testing.assert_array_equal(si.astype(float), fs)


class TestFxpForward:
    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_matches_float_twin_bit_exactly(self, bits):
        model = make_float_model(n_tap=5, hidden=10, steps=4, seed=4, qat_bits=bits)
        fm = convert(model, FxpFormats(weight_bits=bits, state_bits=bits))
        windows = random_windows(model, 200, seed=5)
        logits = fxp_forward(windows, fm)
        assert logits.shape == (200, 4) and logits.dtype == np.int64
        np.testing.assert_array_equal(logits * fc3_grid(fm), float_twin_forward(windows, fm))

    def test_batch_equals_rows_one_at_a_time(self):
        # narrowed accumulator, so both counters are nonzero
        model = make_float_model(seed=9, scale=6.0)
        fm = dataclasses.replace(convert(model, FxpFormats()), acc_bits=16)
        windows = random_windows(model, 30, seed=19)
        batch_stats, row_stats = {}, {}
        logits = fxp_forward(windows, fm, stats=batch_stats)
        rows = np.concatenate([fxp_forward(w[None], fm, stats=row_stats) for w in windows])
        np.testing.assert_array_equal(logits, rows)
        assert batch_stats == row_stats
        assert batch_stats["saturations"] > 0 and batch_stats["state_clips"] > 0
        decide = fm.make_decider()
        assert [decide(w) for w in windows] == list(np.argmax(logits, axis=1))

    def test_zero_window_driven_by_biases_only(self):
        model = make_float_model(seed=6)
        fm = convert(model, FxpFormats())
        zero = np.zeros((1, model.config.n_input))
        logits = fxp_forward(zero, fm)
        np.testing.assert_array_equal(logits, fxp_forward(zero, fm))
        np.testing.assert_array_equal(logits * fc3_grid(fm), float_twin_forward(zero, fm))

    def test_fc3_rescaling_keeps_argmax(self):
        model = make_float_model(seed=7)
        fm = convert(model, FxpFormats())
        windows = random_windows(model, 50, seed=8)
        base = np.argmax(fxp_forward(windows, fm), axis=1)
        fm.ints["w_fc3"] = fm.ints["w_fc3"] * 2
        fm.fracs["w_fc3"] = fm.fracs["w_fc3"] + 1
        np.testing.assert_array_equal(np.argmax(fxp_forward(windows, fm), axis=1), base)

    def test_ternary_window_enforced(self):
        model = make_float_model()
        fm = convert(model, FxpFormats())
        with pytest.raises(ValueError, match="ternary"):
            fxp_forward(np.full((2, model.config.n_input), 0.5), fm)
        with pytest.raises(ValueError, match="shape"):
            fxp_forward(np.zeros((1, 3)), fm)
        with pytest.raises(ValueError, match="shape"):
            fxp_forward(np.zeros(model.config.n_input), fm)

    def test_narrow_accumulator_saturates_and_counts(self):
        # convert() refuses an accumulator this narrow, so narrow one afterwards
        model = make_float_model(seed=9, scale=6.0)
        fm = dataclasses.replace(convert(model, FxpFormats()), acc_bits=16)
        stats = {}
        fxp_forward(random_windows(model, 20, seed=10), fm, stats=stats)
        assert stats.get("saturations", 0) > 0

    def test_narrow_accumulator_matches_float_twin(self):
        # the other twin comparisons run where no accumulator saturates
        model = make_float_model(seed=11, scale=6.0)
        fm = dataclasses.replace(convert(model, FxpFormats()), acc_bits=16)
        windows = random_windows(model, 200, seed=19)
        stats = {}
        logits = fxp_forward(windows, fm, stats=stats)
        np.testing.assert_array_equal(logits * fc3_grid(fm), float_twin_forward(windows, fm))
        assert stats["saturations"] > 0 and stats["state_clips"] > 0

    def test_wide_accumulator_never_saturates_here(self):
        model = make_float_model(seed=11)
        fm = convert(model, FxpFormats())
        stats = {}
        fxp_forward(random_windows(model, 50, seed=12), fm, stats=stats)
        assert stats.get("saturations", 0) == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.05, 8.0),
       bits=st.integers(4, 10), steps=st.integers(1, 6))
def test_matches_float_twin_property(seed, scale, bits, steps):
    model = make_float_model(n_tap=3, hidden=5, steps=steps, seed=seed % 1000, scale=scale,
                             qat_bits=bits)
    try:
        fm = convert(model, FxpFormats(weight_bits=bits, state_bits=bits))
    except ConversionError:
        return  # the worst case does not fit the accumulator: nothing to run
    windows = random_windows(model, 8, seed=seed)
    np.testing.assert_array_equal(fxp_forward(windows, fm) * fc3_grid(fm),
                                  float_twin_forward(windows, fm))


class TestFxpStreamAndSerialization:
    def test_stream_dispatch_and_stats(self):
        model = make_float_model(n_tap=5, hidden=6, steps=2, seed=13)
        fm = convert(model, FxpFormats())
        y = np.random.default_rng(14).uniform(0.0, 1.0, 120)
        stats = {}
        out = equalize_stream(y, fm, stats=stats)
        assert out.shape == (120 - fm.config.history,)
        assert set(np.unique(out)).issubset(set(range(4)))
        assert stats.get("saturations", 0) == 0

    @pytest.mark.parametrize("acc_bits, saturations, state_clips",
                             [(32, 0, 1977), (16, 187, 1905)])
    def test_pinned_closed_loop(self, acc_bits, saturations, state_clips):
        # decisions and clip counts of a fixed feedback run; the narrowed
        # accumulator saturates without changing a decision here
        model = make_float_model(n_tap=5, hidden=8, steps=4, seed=26, scale=4.0)
        fm = dataclasses.replace(convert(model, FxpFormats()), acc_bits=acc_bits)
        y = np.random.default_rng(27).uniform(-0.1, 1.1, 400)
        stats = {}
        out = equalize_stream(y, fm, mode="feedback", stats=stats)
        np.testing.assert_array_equal(np.bincount(out, minlength=4), [80, 48, 0, 270])
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "e32047101a5d01d414c8bfdf6cf56fb7a335e7fd678dd66541036d10efa17e64")
        assert stats == {"saturations": saturations, "state_clips": state_clips}

    def test_roundtrip(self, tmp_path):
        model = make_float_model(seed=15)
        fm = convert(model, FxpFormats())
        path = tmp_path / "model_fxp.npz"
        save_fxp_model(path, fm)
        loaded = load_fxp_model(path)
        assert loaded.config == fm.config
        assert loaded.fracs == fm.fracs
        assert (loaded.k_v, loaded.k_i) == (fm.k_v, fm.k_i)
        assert (loaded.v_th_int, loaded.v_r_int) == (fm.v_th_int, fm.v_r_int)
        for name in fm.ints:
            np.testing.assert_array_equal(loaded.ints[name], fm.ints[name])
        windows = random_windows(model, 10, seed=16)
        np.testing.assert_array_equal(fxp_forward(windows, loaded), fxp_forward(windows, fm))

    def test_loads_version_1_file(self, tmp_path):
        # a container written key by key as version 1 defines it
        fm = convert(make_float_model(n_tap=3, hidden=2, steps=2, seed=17), FxpFormats())
        header = {
            "format": "snndfe-fxp-model", "version": 1,
            "n_tap": 3, "bits_per_symbol": 2, "hidden": 2, "steps": 2,
            "encoder": {"rx_min": 0.0, "rx_max": 1.0},
            "lif": {"alpha_v": 0.125, "alpha_i": 0.25, "v_th": 1.0, "v_r": 0.0,
                    "v_leak": 0.0, "r": 1.0},
            "fracs": fm.fracs, "state_bits": 8, "state_frac_bits": 5,
            "k_v": 3, "k_i": 2, "v_th_int": 32, "v_r_int": 0,
            "weight_bits": 8, "acc_bits": 32,
        }
        path = tmp_path / "v1.npz"
        np.savez(path, header=json.dumps(header), **fm.ints)
        loaded = load_fxp_model(path)
        assert dataclasses.asdict(loaded.state_fmt) == dataclasses.asdict(fm.state_fmt)
        assert (loaded.k_v, loaded.k_i, loaded.v_th_int) == (fm.k_v, fm.k_i, fm.v_th_int)
        assert loaded.lif == fm.lif and loaded.config == fm.config

    @pytest.mark.parametrize("drop", ["fracs", "hidden", "w_fc2", "lif.v_th"])
    def test_missing_key_or_array_is_a_value_error(self, tmp_path, drop):
        path = tmp_path / "model_fxp.npz"
        save_fxp_model(path, convert(make_float_model(seed=18), FxpFormats()))
        drop_from_container(path, drop)
        with pytest.raises(ValueError, match=drop):
            load_fxp_model(path)
