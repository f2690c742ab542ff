import dataclasses
import hashlib
import io
import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndfe.equalizer import (
    EncoderConfig,
    EqualizerModel,
    TopologyConfig,
    equalize_stream,
    load_model,
    one_hot_windows,
    save_model,
)
from snndfe.fxp import (
    ConversionError,
    FxpFormats,
    FxpLifSpec,
    FxpModel,
    _requantize,
    _worst_case_accumulators,
    convert,
    fxp_forward,
    fxp_lif_step,
    load_fxp_model,
    save_fxp_model,
)
from snndfe.lif import LifParams, lif_step
from snndfe.quant import QatConfig, fake_quantize, state_format
from test_equalizer import drop_from_container, edit_container


def firing_lif(state_bits):
    """The shift-friendly LIF, but alpha_v = 1/2 on the 4-bit state grid, where
    alpha_v = 1/8 never lets the voltage reach the threshold."""
    return LifParams(alpha_v=0.5, alpha_i=0.25) if state_bits == 4 else LifParams.shift_friendly()


def make_float_model(n_tap=5, hidden=8, steps=3, seed=0, scale=3.0, qat_bits=8, lif=None):
    cfg = TopologyConfig(n_tap=n_tap, hidden=hidden, steps=steps)
    model = EqualizerModel.initialize(
        cfg, lif or LifParams.shift_friendly(), EncoderConfig(0.0, 1.0),
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
    return one_hot_windows(model.encoder.bin_indices(received), decisions)


def fc3_grid(fm):
    """Scale of fxp_forward's integer logits: value = int * fc3_grid(fm)."""
    return 2.0 ** -max(fm.fracs["w_fc3"], fm.fracs["b_fc3"])


def float_twin_forward(windows, fm, acc_max=None):
    """Float64 simulation of the identical quantized arithmetic over a batch of
    windows (B, n_input): the logits (B, n_classes) as values (oracle). Each
    accumulator is asserted within acc_max (default fm.acc_max)."""
    acc_max = fm.acc_max if acc_max is None else acc_max
    deq = {k: fm.ints[k].astype(float) * 2.0 ** -fm.fracs[k] for k in fm.ints}
    f = fm.fracs
    f_a = max(f["w_fc0"], f["b_fc0"])
    f_h = max(f["w_fc1"] + f_a, f["w_fc2"], f["b_fc1"])
    f_z = max(f["w_fc3"], f["b_fc3"])
    fs = fm.state_fmt.frac_bits
    spec = fm.lif_spec
    s_lo, s_hi = spec.state_min * 2.0 ** -fs, spec.state_max * 2.0 ** -fs

    def acc(val, frac):
        # the invariant _check_model guarantees, so no accumulator is clamped
        assert np.abs(val).max(initial=0) <= acc_max * 2.0 ** -frac, "accumulator overflow"
        return val

    def floor_shift(val, k):
        # states live on the 2^-fs grid; (int >> k) * 2^-fs
        return np.floor(val * 2.0 ** (fs - k)) * 2.0 ** -fs

    def requant_half_up(val):
        if f_h <= fs:
            return val
        return np.floor(val * 2.0 ** fs + 0.5) * 2.0 ** -fs

    a_bias = deq["b_fc0"]
    a_window = acc(windows @ deq["w_fc0"].T + a_bias, f_a)
    v = np.zeros((windows.shape[0], fm.config.hidden))
    i = np.zeros_like(v)
    spikes = np.zeros_like(v)
    z = np.zeros((windows.shape[0], fm.config.n_classes))
    v_th = spec.v_th_int * 2.0 ** -fs
    v_r = spec.v_r_int * 2.0 ** -fs
    for t in range(fm.config.steps):
        a_t = a_window if t == 0 else a_bias
        h = acc(a_t @ deq["w_fc1"].T + deq["b_fc1"] + spikes @ deq["w_fc2"].T, f_h)
        drive = np.clip(requant_half_up(h), s_lo, s_hi)
        i = np.clip(i - floor_shift(i, spec.k_i) + drive, s_lo, s_hi)
        v_pre = np.clip(v - floor_shift(v, spec.k_v) + floor_shift(i, spec.k_v), s_lo, s_hi)
        spikes = (v_pre >= v_th).astype(float)
        v = np.where(spikes > 0, v_r, v_pre)
        z = acc(z + spikes @ deq["w_fc3"].T + deq["b_fc3"], f_z)
    return z


def exact_clamp(x, lo, hi, stats):
    stats["state_clips"] = stats.get("state_clips", 0) + int(np.count_nonzero((x < lo) | (x > hi)))
    return np.minimum(np.maximum(x, lo), hi)


def exact_lif_step(v, i, drive, spec, stats):
    """fxp_lif_step on object arrays of Python ints, whose shifts are exact at
    any width, with both states clamped (oracle): (v, i, spikes as bool)."""
    lo, hi = spec.state_min, spec.state_max
    i = exact_clamp(i - (i >> spec.k_i) + drive, lo, hi, stats)
    v = exact_clamp(v - (v >> spec.k_v) + (i >> spec.k_v), lo, hi, stats)
    spikes = v >= spec.v_th_int
    return np.where(spikes, spec.v_r_int, v).astype(object), i, spikes


def exact_requantize(h, shift, spec, stats):
    """The hidden drive onto the state grid on Python ints (oracle): a right
    shift rounding half up, or a left shift, then the state clamp."""
    scaled = (h + (1 << (shift - 1))) >> shift if shift > 0 else h << -shift
    return exact_clamp(scaled, spec.state_min, spec.state_max, stats)


def exact_forward(windows, fm):
    """The integer datapath on Python ints over a batch of windows (oracle):
    (logits (B, n_classes) on the fc3 grid, {"state_clips"})."""
    ints, f = {k: v.astype(object) for k, v in fm.ints.items()}, fm.fracs
    f_a = max(f["w_fc0"], f["b_fc0"])
    f_h = max(f["w_fc1"] + f_a, f["w_fc2"], f["b_fc1"])
    f_z = max(f["w_fc3"], f["b_fc3"])
    spec, stats = fm.lif_spec, {"state_clips": 0}

    def aligned(name, frac):
        return ints[name] << (frac - f[name])

    def acc(x):
        # the invariant _check_model guarantees, so no accumulator is clamped
        assert np.abs(x).max(initial=0) <= fm.acc_max, "accumulator overflow"
        return x

    a_bias = aligned("b_fc0", f_a)
    a_window = acc(np.asarray(windows).astype(np.int64).astype(object)
                   @ aligned("w_fc0", f_a).T + a_bias)
    v = np.zeros((len(windows), fm.config.hidden), dtype=np.int64).astype(object)
    i, spikes = v.copy(), v.copy()
    z = np.zeros((len(windows), fm.config.n_classes), dtype=np.int64).astype(object)
    for t in range(fm.config.steps):
        a_t = a_window if t == 0 else a_bias
        h = acc(a_t @ aligned("w_fc1", f_h - f_a).T + aligned("b_fc1", f_h)
                + spikes @ aligned("w_fc2", f_h).T)
        drive = exact_requantize(h, f_h - fm.state_fmt.frac_bits, spec, stats)
        v, i, fired = exact_lif_step(v, i, drive, spec, stats)
        spikes = fired.astype(np.int64).astype(object)
        z = acc(z + spikes @ aligned("w_fc3", f_z).T + aligned("b_fc3", f_z))
    return z.astype(np.int64), stats


class TestConvert:
    def test_fake_quantized_model_converts_exactly(self):
        model = make_float_model(seed=2)
        for name in model.PARAM_NAMES:
            arr = getattr(model, name)
            arr[:] = fake_quantize(arr, 8)
        fm = convert(model, FxpFormats(weight_bits=8, state_bits=8))
        for name in model.PARAM_NAMES:
            np.testing.assert_array_equal(fm.ints[name] * 2.0 ** -fm.fracs[name],
                                          getattr(model, name))

    def test_single_weight_rounding_example(self):
        model = make_float_model(n_tap=1, hidden=1, steps=1, scale=0.0)
        # max |w_fc0| = 1.5 pins the fc0 grid at 6 fractional bits
        model.w_fc0[0, :2] = [0.30, 1.5]
        fm = convert(model, FxpFormats(weight_bits=8, state_bits=8))
        assert fm.fracs["w_fc0"] == 6
        assert fm.ints["w_fc0"][0, 0] == 19
        err = abs(fm.ints["w_fc0"][0, 0] * 2.0 ** -6 - 0.30)
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
        # a tiny fc0 bias pins its grid at 30 fractional bits, so w_fc0 @ x
        # would be shifted left by 23 bits into a 32-bit accumulator
        model = make_float_model(seed=3)
        model.b_fc0[:] = 2.0 ** -24
        with pytest.raises(ConversionError, match="accumulators exceed 32 bits: fc0"):
            convert(model, FxpFormats())

    def test_rejects_accumulator_narrower_than_worst_case(self):
        model = make_float_model(seed=9, scale=6.0)
        with pytest.raises(ConversionError, match="hidden drive"):
            convert(model, FxpFormats(acc_bits=16))

    def test_grid_beyond_float64_is_a_conversion_error(self):
        # at 2 bits, max |w| = 1.7e308 needs a step of 2^1024; at 8 bits,
        # max |w| = 1e-310 fits a step of 2^-1036, whose inverse overflows.
        # Both fracs lie far outside the engine's
        for max_abs, bits, frac in [(1.7e308, 2, -1024), (1e-310, 8, 1036)]:
            model = make_float_model()
            model.qat = QatConfig(weight_bits=bits, state_bits=8)
            model.w_fc0[:] = 0.0
            model.w_fc0[0, 0] = max_abs
            with pytest.raises(ConversionError,
                               match=f"'w_fc0'\\] = {frac} is outside \\[-32, 32\\]"):
                convert(model, FxpFormats(weight_bits=bits))

    def test_rejects_reset_off_the_state_grid(self):
        # -10.0 is -320 on the 8-bit state grid [-128, 127]; QAT-float would
        # clamp the reset to -4.0, so the two engines would part after a spike
        model = make_float_model()
        model.lif = LifParams(alpha_v=0.125, alpha_i=0.25, v_th=1.0, v_r=-10.0)
        with pytest.raises(ConversionError, match="v_r"):
            convert(model, FxpFormats())

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
        fv, fi, fs, _ = lif_step(v.astype(float), i.astype(float), drive.astype(float), params,
                                 out=[np.empty(16) for _ in range(4)])
        np.testing.assert_array_equal(ii.astype(float), fi)
        np.testing.assert_array_equal(vi.astype(float), fv)
        np.testing.assert_array_equal(si.astype(float), fs)


@st.composite
def lif_cases(draw):
    bits = draw(st.integers(4, 16))
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    level = st.integers(lo, hi)
    # LifParams' decays give k <= 1074; past that, only in a hand-built spec,
    # 2^-k underflows
    k = st.one_of(st.integers(1, 60), st.integers(1070, 1100))
    spec = FxpLifSpec(k_v=draw(k), k_i=draw(k),
                      v_th_int=draw(level), v_r_int=draw(level), state_min=lo, state_max=hi)
    n = draw(st.integers(1, 8))
    return spec, [draw(st.lists(level, min_size=n, max_size=n)) for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(case=lif_cases())
def test_lif_step_matches_python_ints(case):
    # negative states (floor shifts), states up to 16 bits, and k past 53,
    # where a decay rewritten as ceil(x * (1 - 2^-k)) would round
    spec, (v, i, drive) = case
    state = [np.array(x, dtype=float) for x in (v, i)]
    stats, want_stats = {}, {}
    got = fxp_lif_step(*state, np.array(drive, dtype=float), spec, stats)
    assert got[0] is state[0] and got[1] is state[1]  # float64 state updates in place
    want = exact_lif_step(*(np.array(x, dtype=object) for x in (v, i, drive)), spec, want_stats)
    for g, w in zip(got, want):
        assert list(map(int, g)) == list(map(int, w))
    assert stats == want_stats


def state_spec(bits):
    return FxpLifSpec(k_v=3, k_i=2, v_th_int=0, v_r_int=0,
                      state_min=-(2 ** (bits - 1)), state_max=2 ** (bits - 1) - 1)


def drive_shift(fm):
    """The hidden drive's shift onto the state grid."""
    f = fm.fracs
    f_h = max(f["w_fc1"] + max(f["w_fc0"], f["b_fc0"]), f["w_fc2"], f["b_fc1"])
    return f_h - fm.state_fmt.frac_bits


def check_requantize(h, shift, bits):
    """_requantize against Python ints on accumulator values |h| <= 2^52."""
    h = [max(-2 ** 52, min(2 ** 52, x)) for x in h]
    stats, want_stats = {}, {}
    # scaled as fxp_forward's products arrive, exactly
    scaled = np.ldexp(np.array(h, dtype=float), -shift)
    got = _requantize(scaled, state_spec(bits), stats)
    want = exact_requantize(np.array(h, dtype=object), shift, state_spec(bits), want_stats)
    assert list(map(int, got)) == list(map(int, want))
    assert stats == want_stats


@st.composite
def drive_cases(draw):
    shift = draw(st.integers(-45, 63))  # every shift the engine's fracs allow
    half = 2 ** min(max(shift - 1, 0), 52)  # half a state step, where rounding ties
    near_tie = st.builds(lambda k, d: k * half + d, st.integers(-9, 9), st.integers(-1, 1))
    h = draw(st.lists(st.one_of(st.integers(-2 ** 52, 2 ** 52), near_tie), min_size=1, max_size=8))
    return h, shift, draw(st.integers(4, 16))


@settings(max_examples=300, deadline=None)
@given(case=drive_cases())
def test_requantize_matches_python_ints(case):
    check_requantize(*case)


@pytest.mark.parametrize("bits", [4, 8, 16, 53])
@pytest.mark.parametrize("shift", [1, 52, 53, 54, 63, 64, 78, -11, -45, -48, -71])
def test_requantize_at_shift_boundaries(shift, bits):
    # -45 and 52 bound the engine's shifts, and 4 and 16 its state widths; the
    # shifts past them and the 53-bit range hold too. A left shift of the
    # largest h by 11 bits would wrap an int64; at 53 and 54 bits |h| <= 2^52
    # stops rounding to +-1
    half = 2 ** min(max(shift - 1, 0), 52)
    h = [sign * x for sign in (1, -1)
         for x in (0, 1, half - 1, half, half + 1, 3 * half, 2 ** 52 - 1, 2 ** 52)]
    check_requantize(h, shift, bits)


# (fc0 factor, drive factor, state bits, shift): -45 and 63 are the extreme
# shifts the frac bounds allow, reached with every frac involved at -32 or +32
DRIVE_SHIFTS = [(1, 2.0 ** 11, 8, 1), (2.0 ** -20, 2.0 ** -20, 8, 52),
                (2.0 ** -20, 2.0 ** -21, 8, 53), (2.0 ** -20, 2.0 ** -22, 8, 54),
                (2.0 ** -23, 2.0 ** -24, 4, 63), (1, 2.0 ** 23, 8, -11),
                (2.0 ** 9, 2.0 ** 40, 16, -45)]


@pytest.mark.parametrize("fc0_factor, factor, state_bits, shift", DRIVE_SHIFTS,
                         ids=[str(case[-1]) for case in DRIVE_SHIFTS])
def test_any_drive_shift_runs_exactly(counted_decisions, fc0_factor, factor, state_bits,
                                      shift):
    # scaling fc0's and the hidden drive's tensors sets the drive's shift onto
    # the state grid: left shifts that would wrap an int64 drive, and right
    # shifts up to 52; from acc_bits = 53 on, where every drive |h| < 2^52
    # would round to 0, the model is refused
    model = make_float_model(n_tap=5, hidden=6, steps=3, scale=1.0, lif=firing_lif(state_bits))
    model.qat = QatConfig(weight_bits=8, state_bits=state_bits)
    for name, scale in (("w_fc0", fc0_factor), ("b_fc0", fc0_factor), ("w_fc1", factor),
                        ("b_fc1", factor), ("w_fc2", factor)):
        getattr(model, name)[:] *= scale
    formats = FxpFormats(state_bits=state_bits, acc_bits=53)
    if shift >= formats.acc_bits:
        with pytest.raises(ConversionError, match=rf"grid, {shift} bits, is not below acc_bits"):
            convert(model, formats)
        return
    fm = convert(model, formats)
    assert drive_shift(fm) == shift
    windows = random_windows(model, 100, seed=2)
    stats = {}
    logits = fxp_forward(windows, fm, stats)
    want, want_stats = exact_forward(windows, fm)
    np.testing.assert_array_equal(logits, want)
    assert stats == want_stats
    np.testing.assert_array_equal(logits * fc3_grid(fm), float_twin_forward(windows, fm))
    y = np.random.default_rng(3).uniform(-0.1, 1.1, 60)
    assert counted_decisions(y, fm, {}).shape == (60 - fm.config.history,)


def hand_built(fracs, state_bits, seed):
    """A model with random ints over the whole 16-bit weight range on the grids `fracs`."""
    cfg, rng = TopologyConfig(n_tap=3, hidden=4, steps=4), np.random.default_rng(seed)
    ints = {name: rng.integers(-2 ** 15 + 1, 2 ** 15, shape)
            for name, shape in cfg.param_shapes().items()}
    return FxpModel(config=cfg, encoder=EncoderConfig(0.0, 1.0), lif=firing_lif(state_bits),
                    ints=ints, fracs=fracs, formats=FxpFormats(16, state_bits, acc_bits=53))


# Grids at the frac bounds: +32 everywhere (and on a 4-bit state, fc0 at +21,
# whose drive shift 52 is the largest 53 bits accept), and -32 wherever
# fc1's worst case still fits 53 bits; MID drives the states into their clamps
PLUS = dict.fromkeys(EqualizerModel.PARAM_NAMES, 32)
PLUS_FC0_21 = {**PLUS, "w_fc0": 21, "b_fc0": 21}
MINUS = {"w_fc0": 0, "b_fc0": 0,
         **dict.fromkeys(("w_fc1", "b_fc1", "w_fc2", "w_fc3", "b_fc3"), -32)}
MID = {"w_fc0": 15, "b_fc0": 15, "w_fc1": 13, "b_fc1": 14, "w_fc2": 14, "w_fc3": 12, "b_fc3": 12}
CORNERS = [("fracs+32-fc0+21-state4", PLUS_FC0_21, 4, 52), ("fracs+32-state16", PLUS, 16, 51),
           ("fracs-32-state4", MINUS, 4, -33), ("fracs-32-state16", MINUS, 16, -45),
           ("state4", MID, 4, 27), ("state16", MID, 16, 15)]


@pytest.mark.parametrize("fracs, state_bits, shift", [c[1:] for c in CORNERS],
                         ids=[c[0] for c in CORNERS])
def test_domain_corners_match_python_ints(fracs, state_bits, shift):
    # 16-bit weights at the frac bounds and the state widths' ends, where the
    # drive's shift onto the state grid reaches its extremes, -45 and 52
    fm = hand_built(fracs, state_bits, seed=abs(shift))
    assert drive_shift(fm) == shift
    windows = random_windows(fm, 64, seed=43)
    stats = {}
    logits = fxp_forward(windows, fm, stats)
    want, want_stats = exact_forward(windows, fm)
    np.testing.assert_array_equal(logits, want)
    assert stats == want_stats
    np.testing.assert_array_equal(logits * fc3_grid(fm), float_twin_forward(windows, fm))
    if state_bits == 4:
        # the 4-bit LIF fires, so the windows reach the readout wherever the
        # worst-case drive reaches half a state level; at shift 52 these
        # ints' drives stay below 2^51, and all round to 0
        reach = _worst_case_accumulators(fm.ints, fm.fracs, fm.config.steps)["hidden drive"]
        assert (len(set(map(tuple, logits))) > 1) == (reach >= 2.0 ** (shift - 1))


@pytest.mark.parametrize("bits", range(4, 17))
@pytest.mark.parametrize("alpha_v", [0.125, 0.5])
def test_threshold_above_the_voltage_reach_refused(bits, alpha_v):
    # under the largest current the voltage rises from 0 to (state_max >> k_v)
    # << k_v and stays there; derive accepts a threshold there and refuses one
    # a grid step higher, which no neuron would ever cross
    fmt, k_v = state_format(bits), round(-np.log2(alpha_v))
    reach = (fmt.max_int >> k_v) << k_v
    never = FxpLifSpec(k_v=k_v, k_i=2, v_th_int=fmt.max_int + 1, v_r_int=0,
                       state_min=fmt.min_int, state_max=fmt.max_int)
    v, i, top = np.zeros(1), np.zeros(1), np.full(1, float(fmt.max_int))
    for _ in range(300):
        v, i, _ = fxp_lif_step(v, i, top, never)
    assert v[0] == reach == fxp_lif_step(v, i, top, never)[0][0]

    def lif(level):
        return LifParams(alpha_v=alpha_v, alpha_i=0.25, v_th=level * fmt.scale,
                         v_r=fmt.min_int * fmt.scale)

    assert FxpLifSpec.derive(lif(reach), fmt).v_th_int == reach
    with pytest.raises(ConversionError, match="no neuron would fire"):
        FxpLifSpec.derive(lif(reach + 1), fmt)


@pytest.mark.parametrize("frac", [33, -33])
def test_frac_past_the_bound_refused(tmp_path, frac):
    # a corner model at +-32 constructs and survives its file; one step
    # further is refused by FxpModel and by the loader
    corner = PLUS if frac > 0 else MINUS
    fm = hand_built(corner, 16, seed=5)
    path = tmp_path / "model_fxp.npz"
    save_fxp_model(path, fm)
    assert load_fxp_model(path).fracs == corner
    message = f"fracs\\['w_fc3'\\] = {frac} is outside \\[-32, 32\\]"
    with pytest.raises(ConversionError, match=message):
        FxpModel(config=fm.config, encoder=fm.encoder, lif=fm.lif, ints=fm.ints,
                 fracs={**corner, "w_fc3": frac}, formats=fm.formats)
    edit_container(path, lambda header, arrays: header["fracs"].update(w_fc3=frac))
    with pytest.raises(ValueError, match=message):
        load_fxp_model(path)


class TestFxpForward:
    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_matches_float_twin_bit_exactly(self, bits):
        model = make_float_model(n_tap=5, hidden=10, steps=4, seed=4, qat_bits=bits,
                                 lif=firing_lif(bits))
        fm = convert(model, FxpFormats(weight_bits=bits, state_bits=bits))
        windows = random_windows(model, 200, seed=5)
        logits = fxp_forward(windows, fm)
        assert logits.shape == (200, 4) and logits.dtype == np.int64
        np.testing.assert_array_equal(logits * fc3_grid(fm), float_twin_forward(windows, fm))

    def test_batch_equals_rows_one_at_a_time(self):
        # large weights, so the state clip counter is nonzero
        model = make_float_model(seed=9, scale=6.0)
        fm = convert(model, FxpFormats())
        windows = random_windows(model, 30, seed=19)
        batch_stats, row_stats = {}, {}
        logits = fxp_forward(windows, fm, stats=batch_stats)
        rows = np.concatenate([fxp_forward(w[None], fm, stats=row_stats) for w in windows])
        np.testing.assert_array_equal(logits, rows)
        assert batch_stats == row_stats
        assert batch_stats["state_clips"] > 0
        np.testing.assert_array_equal(fm.make_decider()(windows), np.argmax(logits, axis=1))

    def test_zero_window_driven_by_biases_only(self):
        model = make_float_model(seed=6)
        fm = convert(model, FxpFormats())
        zero = np.zeros((1, model.config.n_input))
        logits = fxp_forward(zero, fm)
        np.testing.assert_array_equal(logits, fxp_forward(zero, fm))
        np.testing.assert_array_equal(logits * fc3_grid(fm), float_twin_forward(zero, fm))

    def test_fc3_rescaling_keeps_argmax(self):
        # the doubled w_fc3 needs a 9-bit grid
        model = make_float_model(seed=7)
        fm = convert(model, FxpFormats())
        windows = random_windows(model, 50, seed=8)
        base = np.argmax(fxp_forward(windows, fm), axis=1)
        rescaled = FxpModel(config=fm.config, encoder=fm.encoder, lif=fm.lif,
                            ints={**fm.ints, "w_fc3": fm.ints["w_fc3"] * 2},
                            fracs={**fm.fracs, "w_fc3": fm.fracs["w_fc3"] + 1},
                            formats=dataclasses.replace(fm.formats, weight_bits=9))
        np.testing.assert_array_equal(np.argmax(fxp_forward(windows, rescaled), axis=1), base)

    def test_ternary_window_enforced(self):
        model = make_float_model()
        fm = convert(model, FxpFormats())
        with pytest.raises(ValueError, match="ternary"):
            fxp_forward(np.full((2, model.config.n_input), 0.5), fm)
        with pytest.raises(ValueError, match="shape"):
            fxp_forward(np.zeros((1, 3)), fm)
        with pytest.raises(ValueError, match="shape"):
            fxp_forward(np.zeros(model.config.n_input), fm)

    def test_narrow_accumulator_matches_float_twin(self):
        # the refusal is not conservative here: on these windows the twin's
        # accumulators pass a 16-bit acc_max, which the oracle's check sees
        model = make_float_model(seed=11, scale=6.0)
        fm = convert(model, FxpFormats())
        windows = random_windows(model, 200, seed=19)
        float_twin_forward(windows, fm)
        with pytest.raises(ConversionError, match="accumulators exceed 16 bits"):
            FxpModel(config=fm.config, encoder=fm.encoder, lif=fm.lif, ints=fm.ints,
                     fracs=fm.fracs, formats=FxpFormats(acc_bits=16))
        with pytest.raises(AssertionError, match="accumulator overflow"):
            float_twin_forward(windows, fm, acc_max=2 ** 15 - 1)

    def test_fc1_product_exact_at_the_accumulator_cap(self):
        # fc0 rows of all-maximal 16-bit weights give |a_window| up to 20 * (2^15-1)
        # on all-+1 and all-(-1) windows, and fc1 rows (c, -c), shifted left by 17
        # bits onto the hidden drive's grid, put its worst case at 0.95 * 2^52: the
        # largest the 53-bit cap allows. Rows 0 and 1 of fc0 differ by delta, so the
        # hidden drive c * delta is on the state grid's scale, and a product rounded
        # to float32's 24 bits (to multiples of 2^28 here, a state step is 2^27)
        # moves the drive by a state step.
        cfg = TopologyConfig(n_tap=3, hidden=4, steps=4)
        q, c, delta = 2 ** 15 - 1, 25_000, 2
        w_fc0 = np.full((cfg.hidden, cfg.n_input), q, dtype=np.int64)
        w_fc0[1, 0] -= delta
        w_fc0[3, 1] -= delta // 2
        w_fc1 = np.zeros((cfg.hidden, cfg.hidden), dtype=np.int64)
        w_fc1[[0, 1, 2], [0, 2, 3]] = c
        w_fc1[[0, 1, 2], [1, 3, 0]] = -c
        rng = np.random.default_rng(31)
        ints = {"w_fc0": w_fc0, "b_fc0": np.zeros(cfg.hidden, dtype=np.int64), "w_fc1": w_fc1,
                "b_fc1": np.ones(cfg.hidden, dtype=np.int64),  # a drive of 1.0 a step
                "w_fc2": rng.integers(-99, 100, (cfg.hidden, cfg.hidden)),
                "w_fc3": rng.integers(-99, 100, (cfg.n_classes, cfg.hidden)),
                "b_fc3": rng.integers(-99, 100, cfg.n_classes)}
        # the hidden drive on the 2^-32 grid, 27 bits finer than the state grid's
        # 2^-5; fc1 products arrive on the 2^-15 grid
        fracs = {"w_fc0": 16, "b_fc0": 16, "w_fc1": -1, "b_fc1": 0, "w_fc2": 32,
                 "w_fc3": 0, "b_fc3": 0}
        fm = FxpModel(config=cfg, encoder=EncoderConfig(0.0, 1.0),
                      lif=LifParams.shift_friendly(), ints=ints, fracs=fracs,
                      formats=FxpFormats(weight_bits=16, acc_bits=53))
        fc1_worst = 2 * c * cfg.n_input * q << 17
        assert 2 ** 51 <= fc1_worst < 2 ** 52
        received = 8 * (cfg.history + 1)
        windows = np.zeros((6, cfg.n_input), dtype=np.int64)
        windows[0], windows[1] = 1, -1
        windows[2, :received], windows[3, :received] = 1, -1
        windows[4:] = random_windows(fm, 2, seed=32)
        stats = {}
        logits = fxp_forward(windows, fm, stats)
        np.testing.assert_array_equal(logits * fc3_grid(fm), float_twin_forward(windows, fm))
        want, want_stats = exact_forward(windows, fm)
        np.testing.assert_array_equal(logits, want)
        assert stats == want_stats
        assert len(set(map(tuple, logits))) > 1  # the drive reaches the readout

    def test_large_alignment_shifts_exact_at_16_bits(self):
        # fc2 products shift left by 32 bits and fc3 products by 45 (folded into
        # the float64 weights), with the logits' worst case just under 2^52
        cfg = TopologyConfig(n_tap=3, hidden=4, steps=4)
        rng = np.random.default_rng(41)
        ints = {"w_fc0": rng.integers(-2 ** 14, 2 ** 14, (cfg.hidden, cfg.n_input)),
                "b_fc0": rng.integers(-2 ** 13, 2 ** 13, cfg.hidden),
                "w_fc1": rng.integers(-2 ** 12, 2 ** 12, (cfg.hidden, cfg.hidden)),
                "b_fc1": rng.integers(-2 ** 15, 2 ** 15, cfg.hidden),
                "w_fc2": rng.integers(-2, 3, (cfg.hidden, cfg.hidden)),
                "w_fc3": rng.integers(-7, 8, (cfg.n_classes, cfg.hidden)),
                "b_fc3": rng.integers(-2 ** 15, 2 ** 15, cfg.n_classes)}
        fracs = {"w_fc0": 14, "b_fc0": 14, "w_fc1": 10, "b_fc1": 32, "w_fc2": 0,
                 "w_fc3": -13, "b_fc3": 32}
        fm = FxpModel(config=cfg, encoder=EncoderConfig(0.0, 1.0),
                      lif=LifParams.shift_friendly(), ints=ints, fracs=fracs,
                      formats=FxpFormats(weight_bits=16, acc_bits=53))
        windows = random_windows(fm, 64, seed=42)
        logits = fxp_forward(windows, fm)
        np.testing.assert_array_equal(logits * fc3_grid(fm), float_twin_forward(windows, fm))
        np.testing.assert_array_equal(logits, exact_forward(windows, fm)[0])
        assert len(set(map(tuple, logits))) > 1  # the spikes reach the readout

    def test_wide_accumulator_never_saturates_here(self):
        # the oracle asserts every accumulator value within acc_max
        model = make_float_model(seed=11)
        fm = convert(model, FxpFormats())
        windows = random_windows(model, 50, seed=12)
        stats = {}
        logits = fxp_forward(windows, fm, stats=stats)
        want, want_stats = exact_forward(windows, fm)
        np.testing.assert_array_equal(logits, want)
        assert stats == want_stats


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.05, 8.0),
       bits=st.integers(4, 16), weight_bits=st.integers(4, 16), steps=st.integers(1, 6))
def test_matches_float_twin_property(seed, scale, bits, weight_bits, steps):
    # widths up to FxpFormats' caps; a 53-bit accumulator holds every worst
    # case here, so convert() accepts each model
    model = make_float_model(n_tap=3, hidden=5, steps=steps, seed=seed % 1000, scale=scale,
                             qat_bits=bits, lif=firing_lif(bits))
    model.qat = QatConfig(weight_bits=weight_bits, state_bits=bits)
    fm = convert(model, FxpFormats(weight_bits=weight_bits, state_bits=bits, acc_bits=53))
    windows = random_windows(model, 8, seed=seed)
    stats = {}
    logits = fxp_forward(windows, fm, stats)
    np.testing.assert_array_equal(logits * fc3_grid(fm), float_twin_forward(windows, fm))
    want, want_stats = exact_forward(windows, fm)
    np.testing.assert_array_equal(logits, want)
    assert stats == want_stats
    # every model convert accepts survives its file
    file = io.BytesIO()
    save_fxp_model(file, fm)
    file.seek(0)
    loaded = load_fxp_model(file)
    assert loaded.formats == fm.formats and loaded.lif_spec == fm.lif_spec
    np.testing.assert_array_equal(fxp_forward(windows, loaded), logits)


class TestFxpStreamAndSerialization:
    def test_stream_dispatch_and_stats(self, counted_decisions):
        model = make_float_model(n_tap=5, hidden=6, steps=2, seed=13)
        fm = convert(model, FxpFormats())
        y = np.random.default_rng(14).uniform(0.0, 1.0, 120)
        stats = {}
        out = counted_decisions(y, fm, stats)
        assert out.shape == (120 - fm.config.history,)
        assert set(np.unique(out)).issubset(set(range(4)))
        assert list(stats) == ["state_clips"]

    def test_pinned_closed_loop(self, counted_decisions):
        # decisions and clip counts of a fixed feedback run, as evaluate_ber counts them
        model = make_float_model(n_tap=5, hidden=8, steps=4, seed=26, scale=4.0)
        fm = convert(model, FxpFormats())
        y = np.random.default_rng(27).uniform(-0.1, 1.1, 400)
        stats = {}
        out = counted_decisions(y, fm, stats)
        np.testing.assert_array_equal(out, equalize_stream(y, fm))
        np.testing.assert_array_equal(np.bincount(out, minlength=4), [80, 48, 0, 270])
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "e32047101a5d01d414c8bfdf6cf56fb7a335e7fd678dd66541036d10efa17e64")
        assert stats == {"state_clips": 1977}

    @pytest.mark.parametrize("edit, error", [
        (lambda fm: setattr(fm, "formats", FxpFormats(acc_bits=16)),
         dataclasses.FrozenInstanceError),
        (lambda fm: operator.setitem(fm.ints, "w_fc3", -fm.ints["w_fc3"]), TypeError),
        (lambda fm: operator.setitem(fm.fracs, "b_fc3", fm.fracs["b_fc3"] + 1), TypeError),
        (lambda fm: fm.ints["w_fc0"].__setitem__((0, 0), 1), ValueError),
    ], ids=["field", "ints_entry", "fracs_entry", "array_element"])
    def test_model_is_immutable(self, edit, error):
        # the model is checked and its constants folded once, at construction,
        # so every way to edit it afterwards raises, and it keeps copies of
        # the caller's arrays, which stay writeable
        built = convert(make_float_model(n_tap=5, hidden=8, steps=4, seed=26, scale=4.0),
                        FxpFormats())
        ints, fracs = {k: np.array(v) for k, v in built.ints.items()}, dict(built.fracs)
        fm = FxpModel(config=built.config, encoder=built.encoder, lif=built.lif, ints=ints,
                      fracs=fracs, formats=built.formats)
        windows = random_windows(fm, 64, seed=29)
        logits = fxp_forward(windows, fm)
        with pytest.raises(error):
            edit(fm)
        for name, arr in ints.items():
            assert arr.flags.writeable and not np.shares_memory(arr, fm.ints[name])
        ints["w_fc3"] *= -1
        fracs["b_fc3"] += 1
        np.testing.assert_array_equal(fxp_forward(windows, fm), logits)
        np.testing.assert_array_equal(fm.make_decider()(windows), np.argmax(logits, axis=1))

    @pytest.mark.parametrize("change, match", [
        # 2^58 in every column: the int64 row sum of the worst case wraps
        (lambda fm: {"ints": {**fm.ints, "w_fc0": np.full_like(fm.ints["w_fc0"], 2 ** 58)}},
         "representable range: \\['w_fc0'\\]"),
        # past 2^53 the float64 products would round
        (lambda fm: {"ints": {**fm.ints, "w_fc0": fm.ints["w_fc0"] << 50}},
         "representable range: \\['w_fc0'\\]"),
        (lambda fm: {"formats": FxpFormats(acc_bits=16)}, "accumulators exceed 16 bits"),
        (lambda fm: {"ints": {**fm.ints, "w_fc1": fm.ints["w_fc1"].astype(np.int32)}},
         "w_fc1 must be an int64 array"),
    ], ids=["w_fc0_wraps_int64", "w_fc0_past_float64", "acc_bits_16", "int32_tensor"])
    def test_refused_at_construction(self, change, match):
        # a model rebuilt from a valid one's fields (any mappings) with one
        # change construction refuses
        fm = convert(make_float_model(n_tap=5, hidden=6, steps=2, scale=6.0), FxpFormats())
        with pytest.raises(ConversionError, match=match):
            dataclasses.replace(fm, **change(fm))

    def test_roundtrip(self, tmp_path):
        model = make_float_model(seed=15)
        fm = convert(model, FxpFormats())
        path = tmp_path / "model_fxp.npz"
        save_fxp_model(path, fm)
        loaded = load_fxp_model(path)
        assert loaded.config == fm.config
        assert loaded.fracs == fm.fracs
        assert loaded.lif_spec == fm.lif_spec
        for name in fm.ints:
            np.testing.assert_array_equal(loaded.ints[name], fm.ints[name])
        windows = random_windows(model, 10, seed=16)
        np.testing.assert_array_equal(fxp_forward(windows, loaded), fxp_forward(windows, fm))

    def test_numpy_integer_bit_widths_survive_their_files(self, tmp_path):
        # the widths are stored as plain ints, so both JSON headers can hold them
        model = make_float_model(seed=15)
        model.qat = QatConfig(np.int64(8), np.int64(8))
        fm = convert(model, FxpFormats(*map(np.int64, (8, 8, 32))))
        save_model(tmp_path / "model.npz", model)
        assert load_model(tmp_path / "model.npz").qat == QatConfig(8, 8)
        save_fxp_model(tmp_path / "model_fxp.npz", fm)
        assert load_fxp_model(tmp_path / "model_fxp.npz").formats == FxpFormats(8, 8, 32)

    def test_loads_version_1_file(self, tmp_path):
        # a container written key by key as version 1 defines it
        fm = convert(make_float_model(n_tap=3, hidden=2, steps=2, seed=17), FxpFormats())
        header = {
            "format": "snndfe-fxp-model", "version": 1,
            "n_tap": 3, "bits_per_symbol": 2, "hidden": 2, "steps": 2,
            "encoder": {"rx_min": 0.0, "rx_max": 1.0},
            "lif": {"alpha_v": 0.125, "alpha_i": 0.25, "v_th": 1.0, "v_r": 0.0,
                    "v_leak": 0.0, "r": 1.0},
            "fracs": dict(fm.fracs), "state_bits": 8, "state_frac_bits": 5,
            "k_v": 3, "k_i": 2, "v_th_int": 32, "v_r_int": 0,
            "weight_bits": 8, "acc_bits": 32,
        }
        path = tmp_path / "v1.npz"
        np.savez(path, header=json.dumps(header), **fm.ints)
        loaded = load_fxp_model(path)
        assert dataclasses.asdict(loaded.state_fmt) == dataclasses.asdict(fm.state_fmt)
        assert (loaded.lif_spec.k_v, loaded.lif_spec.k_i, loaded.lif_spec.v_th_int) == (
            fm.lif_spec.k_v, fm.lif_spec.k_i, fm.lif_spec.v_th_int)
        assert loaded.lif == fm.lif and loaded.config == fm.config

    @staticmethod
    def check_16_bit_cap(tmp_path, field):
        """An FPGA datapath's weights and LIF states are at most 16 bits wide:
        a 16-bit model survives its file, a 17-bit format or file is refused."""
        path = tmp_path / "model_fxp.npz"
        save_fxp_model(path, hand_built(MID, 16, seed=6))
        assert getattr(load_fxp_model(path).formats, field) == 16
        message = f"{field} must be in \\[[24], 16\\], got 17"
        with pytest.raises(ValueError, match=message):
            FxpFormats(**{field: 17})
        edit_container(path, lambda header, arrays: header.update({field: 17}))
        with pytest.raises(ValueError, match=message):
            load_fxp_model(path)

    def test_weight_bits_over_the_cap_refused(self, tmp_path):
        self.check_16_bit_cap(tmp_path, "weight_bits")

    def test_state_bits_over_the_cap_refused(self, tmp_path):
        self.check_16_bit_cap(tmp_path, "state_bits")

    def test_acc_bits_over_the_cap_refused(self, tmp_path):
        # 53 bits keep the fc1 product exact in float64; a wider file is refused
        with pytest.raises(ValueError, match="acc_bits"):
            FxpFormats(acc_bits=54)
        path = tmp_path / "model_fxp.npz"
        save_fxp_model(path, convert(make_float_model(seed=18), FxpFormats()))
        edit_container(path, lambda header, arrays: header.update(acc_bits=54))
        with pytest.raises(ValueError, match="acc_bits"):
            load_fxp_model(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda h, a: h.update(v_th_int=h["v_th_int"] + 7), "v_th_int"),
        (lambda h, a: h.update(k_v=0), "k_v"),
        (lambda h, a: h.update(state_frac_bits=2), "state_frac_bits"),
        (lambda h, a: a.update(w_fc1=a["w_fc1"] * 2 ** 20), "w_fc1"),
        (lambda h, a: a.update(w_fc0=a["w_fc0"] * 2 ** 40), "w_fc0"),
        (lambda h, a: h["fracs"].update(b_fc0=h["fracs"]["b_fc0"] + 24), "accumulators.*fc0"),
        (lambda h, a: h["fracs"].pop("b_fc3"), "fracs"),
        (lambda h, a: a.update(b_fc0=a["b_fc0"][:1]), "b_fc0"),
        (lambda h, a: (h["lif"].update(v_r=-10.0), h.update(v_r_int=-320)), "v_r"),
        (lambda h, a: h["fracs"].update(w_fc0=10 ** 8), "fracs"),
    ], ids=["v_th_int", "k_v", "state_frac_bits", "w_fc1_range", "w_fc0_range",
            "fracs_accumulator", "fracs_key", "b_fc0_shape", "v_r_off_grid", "fracs_range"])
    def test_edited_file_refused(self, tmp_path, edit, match):
        # each edit loads into a model that convert would refuse or that
        # fxp_forward runs wrongly, so the loader must name what is wrong
        path = tmp_path / "model_fxp.npz"
        save_fxp_model(path, convert(make_float_model(seed=18), FxpFormats()))
        edit_container(path, edit)
        with pytest.raises(ValueError, match=match):
            load_fxp_model(path)

    @pytest.mark.parametrize("drop", ["fracs", "hidden", "w_fc2", "lif.v_th"])
    def test_missing_key_or_array_is_a_value_error(self, tmp_path, drop):
        path = tmp_path / "model_fxp.npz"
        save_fxp_model(path, convert(make_float_model(seed=18), FxpFormats()))
        drop_from_container(path, drop)
        with pytest.raises(ValueError, match=drop):
            load_fxp_model(path)
