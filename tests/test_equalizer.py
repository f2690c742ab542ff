import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snndfe.channel import ChannelConfig, simulate_link
from snndfe.equalizer import (
    EncoderConfig,
    EqualizerModel,
    TopologyConfig,
    encode_window,
    equalize_stream,
    forward,
    load_model,
    one_hot_windows,
    save_model,
    teacher_forced_windows,
)
from snndfe.fxp import ConversionError, FxpFormats, convert
from snndfe.lif import LifParams
from snndfe.quant import QatConfig


def make_model(n_tap=5, hidden=6, steps=3, seed=0, encoder=None):
    cfg = TopologyConfig(n_tap=n_tap, hidden=hidden, steps=steps)
    return EqualizerModel.initialize(
        cfg, LifParams(), encoder or EncoderConfig(0.0, 1.0), np.random.default_rng(seed)
    )


def forward_one(encoded, model, keep=False):
    """Logits (and tape) of the model's forward pass over one window."""
    logits, tape = forward(encoded[None, :], model.effective_weights(), model.config,
                           model.lif, model.qat, keep=keep)
    return logits[0], tape


def build_bin_classifier_model(bin_to_class, encoder, n_tap=17, steps=1):
    """Model whose decision is a pure lookup of the current-received bin.

    Neuron c receives a large drive exactly when the current block's active
    bin maps to class c, spikes in one step, and an identity readout turns the
    spike into the argmax winner.
    """
    cfg = TopologyConfig(n_tap=n_tap, hidden=4, steps=steps)
    history, n_c = cfg.history, cfg.n_classes
    w_fc0 = np.zeros((4, cfg.n_input))
    current_base = history * 8 + history * n_c
    for b, cls in enumerate(bin_to_class):
        w_fc0[cls, current_base + b] = 1.0
    return EqualizerModel(
        config=cfg, lif=LifParams(), encoder=encoder,
        w_fc0=w_fc0, b_fc0=np.zeros(4),
        w_fc1=20.0 * np.eye(4), b_fc1=np.zeros(4),
        w_fc2=np.zeros((4, 4)),
        w_fc3=np.eye(4), b_fc3=np.zeros(4),
    )


def sequential_equalize(y, model, mode="feedback", true_classes=None, fill_class=0,
                        stats=None):
    """The per-symbol decision-feedback loop: one window and one decider call per
    symbol, each decision fed back before the next window is built, the
    warm-up standing as `fill_class` (reference for equalize_stream's batched
    passes). Genie mode feeds back `true_classes`, warm-up included."""
    history = model.config.history
    fed = np.full(len(y), fill_class, dtype=np.int64)
    if mode == "genie":
        fed[:] = true_classes
    decide, bins = model.make_decider(), model.encoder.bin_indices(y)
    out = np.zeros(len(y) - history, dtype=np.int64)
    for k in range(history, len(y)):
        window = one_hot_windows(bins[None, k - history : k + 1], fed[None, k - history : k])
        out[k - history] = decide(window, stats)[0]
        if mode == "feedback":
            fed[k] = out[k - history]
    return out


class TestSizing:
    @staticmethod
    def macs(n_tap, hidden, steps):
        return TopologyConfig(n_tap=n_tap, hidden=hidden, steps=steps).macs_per_symbol()

    def test_input_size_paper_values(self):
        assert TopologyConfig(n_tap=41).n_input == 248
        assert TopologyConfig(n_tap=17).n_input == 104
        assert TopologyConfig(n_tap=1).n_input == 8

    def test_even_tap_count_rejected(self):
        with pytest.raises(ValueError, match="n_tap must be odd, got 16"):
            TopologyConfig(n_tap=16)

    def test_mac_count_paper_values(self):
        # the paper's operating points: (hidden 80, 41 taps, T 10), (72, 17, 5), (56, 17, 5)
        assert self.macs(41, 80, 10) == 329600
        assert self.macs(17, 72, 5) == 90720
        assert self.macs(17, 56, 5) == 61600

    def test_mac_count_monotone(self):
        base = self.macs(17, 24, 5)
        assert self.macs(17, 25, 5) > base
        assert self.macs(19, 24, 5) > base
        assert self.macs(17, 24, 6) > base

    @pytest.mark.parametrize("field, value", [("n_tap", 5.0), ("hidden", 8.0), ("steps", 2.0),
                                              ("n_tap", True), ("hidden", "8"),
                                              ("steps", np.float64(3))])
    def test_non_integer_dimension_refused(self, field, value):
        # a float dimension would give float shapes (n_input 32.0) that fail
        # only far from here, where weights are drawn or windows built
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TopologyConfig(**{"n_tap": 5, "hidden": 8, "steps": 2, field: value})

    def test_numpy_integer_dimensions_are_plain_ints(self, tmp_path):
        cfg = TopologyConfig(n_tap=np.int64(5), hidden=np.int32(8), steps=np.uint8(2))
        assert cfg == TopologyConfig(n_tap=5, hidden=8, steps=2)
        assert [type(v) for v in (cfg.n_tap, cfg.hidden, cfg.steps)] == [int] * 3
        model = EqualizerModel.initialize(cfg, LifParams(), EncoderConfig(0.0, 1.0),
                                          np.random.default_rng(0))
        save_model(tmp_path / "model.npz", model)  # its header is JSON
        assert load_model(tmp_path / "model.npz").config == cfg


class TestEncodeWindow:
    def test_decision_one_hot(self):
        encoder = EncoderConfig(0.0, 1.0)
        vec = encode_window([0.0, 0.0], [2], encoder)
        np.testing.assert_array_equal(vec[8:12], [0.0, 0.0, 1.0, 0.0])

    def test_block_structure_17_taps(self):
        encoder = EncoderConfig(0.0, 1.0)
        rng = np.random.default_rng(0)
        vec = encode_window(rng.uniform(0, 1, 9), rng.integers(0, 4, 8), encoder)
        assert vec.shape == (104,)
        assert np.count_nonzero(vec) == 17
        assert set(np.unique(vec)).issubset({0.0, 1.0})

    def test_bin_sweep_monotone_with_edge_clamp(self):
        # exhaustive sweep over the calibrated range
        encoder = EncoderConfig(-1.0, 3.0)
        sweep = np.linspace(-1.5, 3.5, 1001)
        bins = encoder.bin_indices(sweep)
        assert bins[0] == 0 and bins[-1] == 7
        assert encoder.bin_indices([-1.0])[0] == 0
        assert encoder.bin_indices([3.0])[0] == 7
        assert np.all(np.diff(bins) >= 0)
        assert set(bins) == set(range(8))

    def test_far_samples_over_tiny_span_clamp_to_edge_bins(self):
        encoder = EncoderConfig(0.0, 1e-308)
        np.testing.assert_array_equal(encoder.bin_indices([1e10, -1e10, 5e-309]), [7, 0, 4])

    def test_ends_too_far_apart_for_a_finite_span(self):
        # rx_max - rx_min overflows to inf there, and is refused; just inside
        # float64's range the span is finite and bins as any other
        with pytest.raises(ValueError, match="finite span"):
            EncoderConfig(-1e308, 1e308)
        encoder = EncoderConfig(-8e307, 8e307)
        np.testing.assert_array_equal(encoder.bin_indices([-1e308, 0.0, 5e307, 1e308]),
                                      [0, 4, 6, 7])

    def test_nan_sample_rejected_and_infinities_clamp(self):
        # a NaN sample was binned to 0 with only a cast warning, so the closed
        # loop decided it silently
        encoder = EncoderConfig(0.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            encoder.bin_indices([0.5, np.nan])
        y = np.random.default_rng(3).uniform(0.0, 1.0, 40)
        y[30] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            equalize_stream(y, make_model(encoder=encoder))
        np.testing.assert_array_equal(encoder.bin_indices([-np.inf, np.inf]), [0, 7])

    @settings(max_examples=100, deadline=None)
    @given(ends=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=2, max_size=2, unique=True),
           samples=st.lists(st.floats(allow_nan=False), max_size=50))
    def test_bins_monotone_with_edges_at_ends(self, ends, samples):
        # ends whose span overflows are refused (test_non_finite_ends_rejected)
        assume(math.isfinite(max(ends) - min(ends)))
        encoder = EncoderConfig(min(ends), max(ends))
        bins = encoder.bin_indices(np.sort(samples))
        assert np.all(np.diff(bins) >= 0)
        np.testing.assert_array_equal(encoder.bin_indices([encoder.rx_min, encoder.rx_max]),
                                      [0, 7])

    @settings(max_examples=100, deadline=None)
    @given(rx_min=st.floats(-4.0, 4.0), span_exp=st.integers(-10, 10),
           grid_exp=st.integers(0, 20))
    def test_exact_bin_edge_lands_in_its_bin(self, rx_min, span_exp, grid_exp):
        # rx_min on a dyadic grid, so every edge rx_min + b*span/8 is exact
        span = 2.0 ** span_exp
        step = span / 8 * 2.0 ** -grid_exp
        rx_min = round(rx_min / step) * step
        encoder = EncoderConfig(rx_min, rx_min + span)
        edges = rx_min + np.arange(8) * (span / 8)
        np.testing.assert_array_equal(encoder.bin_indices(edges), np.arange(8))

    # non-finite ends, then equal, reversed and too far apart for a finite span
    @pytest.mark.parametrize("ends", [(np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0),
                                      (0.0, np.inf), (1.0, 1.0), (1.0, 0.5),
                                      (-1e308, 1e308)])
    def test_non_finite_ends_rejected(self, tmp_path, ends):
        with pytest.raises(ValueError, match=r"finite with rx_min < rx_max and a finite span"):
            EncoderConfig(*ends)
        # nor does a model file with such ends load
        path = tmp_path / "model.npz"
        save_model(path, make_model(seed=14))
        edit_container(path, lambda header, arrays: header["encoder"].update(
            rx_min=ends[0], rx_max=ends[1]))
        with pytest.raises(ValueError, match=r"finite with rx_min < rx_max and a finite span"):
            load_model(path)

    def test_string_ends_refused(self):
        # a hand-edited model file may quote its ends; they are not numbers
        with pytest.raises(TypeError):
            EncoderConfig("0.0", "1.0")

    def test_window_length_mismatch(self):
        with pytest.raises(ValueError):
            encode_window([0.0, 0.0, 0.0], [1], EncoderConfig(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(rx_min=st.floats(-2.0, 2.0), span=st.floats(0.0, 3.0, exclude_min=True),
       n_tap=st.sampled_from([1, 3, 5, 9, 17]), seed=st.integers(0, 2 ** 32 - 1))
def test_prebinned_windows_match_encode_window(rx_min, span, n_tap, seed):
    # windows built from one binning of the whole stream (as the training
    # batches and the closed loop build them) against the per-window encoder;
    # a span too small to move rx_min gives equal ends, which are refused
    assume(rx_min + span > rx_min)
    encoder = EncoderConfig(rx_min, rx_min + span)
    cfg = TopologyConfig(n_tap=n_tap, hidden=1, steps=1)
    rng = np.random.default_rng(seed)
    history = cfg.history
    y = rng.uniform(rx_min - 1.0, rx_min + span + 1.0, history + 12)
    y[rng.integers(0, y.size, 2)] = [encoder.rx_min, encoder.rx_max]  # bin edges
    fed = rng.integers(0, cfg.n_classes, y.size)
    windows, labels = teacher_forced_windows(y, fed, encoder, cfg)
    np.testing.assert_array_equal(labels, fed[history:])
    for k in range(history, y.size):
        expected = encode_window(y[k - history : k + 1], fed[k - history : k], encoder)
        np.testing.assert_array_equal(windows[k - history], expected)


class TestSnnForward:
    def test_single_step_degenerate_accumulation(self):
        model = make_model(steps=1)
        encoded = encode_window([0.3, 0.7, 0.1], [1, 2], model.encoder)
        logits, tape = forward_one(encoded, model, keep=True)
        # T = 1: logits are the readout of the single step's spikes
        np.testing.assert_allclose(logits, model.w_fc3 @ tape["s"][0][0] + model.b_fc3)

    def test_zero_model_ties_to_class_zero(self):
        model = make_model()
        for name in model.PARAM_NAMES:
            getattr(model, name)[:] = 0.0
        encoded = encode_window([0.5, 0.5, 0.5], [0, 0], model.encoder)
        logits, _ = forward_one(encoded, model)
        np.testing.assert_array_equal(logits, np.zeros(4))
        np.testing.assert_array_equal(model.make_decider()(encoded[None]), [0])

    def test_always_spiking_neuron_closed_form(self):
        # constant huge bias drive makes neuron 0 spike at every step, so the
        # accumulated logits equal steps * fc3_column_0
        cfg = TopologyConfig(n_tap=3, hidden=2, steps=7)
        rng = np.random.default_rng(1)
        w_fc3 = rng.standard_normal((4, 2))
        model = EqualizerModel(
            config=cfg, lif=LifParams(), encoder=EncoderConfig(0.0, 1.0),
            w_fc0=np.zeros((2, cfg.n_input)), b_fc0=np.zeros(2),
            w_fc1=np.zeros((2, 2)), b_fc1=np.array([100.0, -100.0]),
            w_fc2=np.zeros((2, 2)),
            w_fc3=w_fc3, b_fc3=np.zeros(4),
        )
        encoded = encode_window([0.2, 0.8], [3], model.encoder)
        logits, _ = forward_one(encoded, model)
        np.testing.assert_allclose(logits, 7 * w_fc3[:, 0])

    def test_logits_additive_over_steps(self):
        model = make_model(steps=5, seed=3)
        # spread spiking activity with a moderate bias
        model.b_fc1[:] = 1.5
        encoded = encode_window([0.1, 0.9, 0.4], [0, 3], model.encoder)
        logits, tape = forward_one(encoded, model, keep=True)
        manual = sum(model.w_fc3 @ tape["s"][t][0] + model.b_fc3 for t in range(5))
        np.testing.assert_array_equal(logits, manual)

    def test_batch_rows_are_independent(self):
        # a window's logits do not depend on the other windows of its batch
        model = make_model(n_tap=5, hidden=8, steps=4, seed=4)
        model.b_fc1[:] = 1.0
        rng = np.random.default_rng(5)
        windows = np.stack([
            encode_window(rng.uniform(0, 1, 3), rng.integers(0, 4, 2), model.encoder)
            for _ in range(6)
        ])
        batched, _ = forward(windows, model.parameters(), model.config, model.lif)
        for k in range(6):
            np.testing.assert_allclose(forward_one(windows[k], model)[0], batched[k],
                                       rtol=1e-12, atol=1e-12)

    def test_encoded_shape_checked(self):
        model = make_model()
        with pytest.raises(ValueError):
            forward(np.zeros((1, 3)), model.parameters(), model.config, model.lif)
        with pytest.raises(ValueError):
            forward(np.zeros(model.config.n_input), model.parameters(), model.config, model.lif)


class TestEqualizeStream:
    def test_genie_equals_feedback_when_all_correct(self):
        # constructed oracle: a memoryless noiseless stream whose current
        # sample determines the class lets a bin-lookup model decide every
        # symbol correctly, so feedback and teacher-forced windows decide alike
        rng = np.random.default_rng(5)
        classes = rng.integers(0, 4, 200)
        y = classes.astype(float)
        encoder = EncoderConfig(-0.25, 3.25)
        bins = encoder.bin_indices(np.arange(4.0))
        bin_to_class = np.zeros(8, dtype=int)
        for b in range(8):
            bin_to_class[b] = int(np.argmin(np.abs(bins - b)))
        model = build_bin_classifier_model(bin_to_class, encoder)

        fb = equalize_stream(y, model)
        genie = model.make_decider()(teacher_forced_windows(y, classes, encoder, model.config)[0])
        np.testing.assert_array_equal(fb, genie)
        np.testing.assert_array_equal(fb, classes[model.config.history :])

    def test_output_length_excludes_warmup(self):
        model = make_model(n_tap=5)
        y = np.random.default_rng(6).uniform(0, 1, 50)
        out = equalize_stream(y, model)
        assert out.shape == (50 - model.config.history,)

    def test_short_stream_rejected(self):
        model = make_model(n_tap=17)
        with pytest.raises(ValueError):
            equalize_stream(np.zeros(5), model)

    def test_feedback_deterministic(self):
        model = make_model(n_tap=5, seed=7)
        y = np.random.default_rng(8).uniform(0, 1, 100)
        np.testing.assert_array_equal(equalize_stream(y, model), equalize_stream(y, model))

    @pytest.mark.parametrize("qat", [None, QatConfig(weight_bits=8, state_bits=8)])
    def test_closed_loop_matches_batched_forward(self, qat):
        # feeding the stream's own decisions back as teacher-forced windows
        # reproduces them: the closed loop runs, one window at a time, the
        # forward that runs batched over the fed classes
        cfg = TopologyConfig(n_tap=9, hidden=24, steps=5)
        lif = LifParams.shift_friendly() if qat else LifParams()
        bits = np.random.default_rng(20).integers(0, 2, 2 * 600)
        _, y = simulate_link(bits, ChannelConfig(), 17.0, np.random.default_rng(21))
        encoder = EncoderConfig(float(y.min()), float(y.max()))
        model = EqualizerModel.initialize(cfg, lif, encoder, np.random.default_rng(22), qat=qat)
        for name in model.PARAM_NAMES:
            getattr(model, name)[:] *= 3.0
        decisions = equalize_stream(y, model)
        assert len(set(decisions.tolist())) > 1  # not a constant decider
        fed = np.concatenate([np.zeros(cfg.history, dtype=np.int64), decisions])
        windows, labels = teacher_forced_windows(y, fed, encoder, cfg)
        np.testing.assert_array_equal(labels, decisions)
        logits, _ = forward(windows, model.effective_weights(), cfg, lif, qat)
        np.testing.assert_array_equal(np.argmax(logits, axis=1), decisions)

    @pytest.mark.parametrize("bad_class", [5, -3])
    def test_genie_true_classes_outside_the_classes_rejected(self, bad_class):
        model = make_model()
        classes = np.zeros(40, dtype=np.int64)
        classes[20] = bad_class
        with pytest.raises(ValueError, match="classes must be in"):
            teacher_forced_windows(np.linspace(0, 1, 40), classes, model.encoder, model.config)

    def test_chaotic_model_passes_shrink(self, monkeypatch):
        # untrained, with the decision-block weights scaled up so that each
        # decision flips the guess fed to the next: passes of the whole cap
        # would keep about one symbol each (482 passes, 28,832 rows for these
        # 498 decisions), so the passes shrink until they keep their rows
        cfg = TopologyConfig(n_tap=5, hidden=16, steps=2)
        model = EqualizerModel.initialize(cfg, LifParams(), EncoderConfig(0.0, 1.0),
                                          np.random.default_rng(2))
        history = cfg.history
        model.w_fc0[:, 8 * history : (8 + cfg.n_classes) * history] *= 30.0
        model.w_fc1 *= 3.0
        model.w_fc3 *= 3.0
        y = np.random.default_rng(102).uniform(0.0, 1.0, 500)
        rows = []
        make_decider = EqualizerModel.make_decider

        def counting_decider(self):
            decide = make_decider(self)

            def counted(windows, stats=None):
                rows.append(len(windows))
                return decide(windows, stats)

            return counted

        monkeypatch.setattr(EqualizerModel, "make_decider", counting_decider)
        out = equalize_stream(y, model)
        assert rows[0] == 64 and min(rows) <= 3  # from the cap down to a few rows
        assert sum(rows) < 3 * out.size
        assert len(set(out.tolist())) == 3
        monkeypatch.undo()
        np.testing.assert_array_equal(out, sequential_equalize(y, model))

    def test_class_permutation_equivariance(self):
        # permuting fc3 rows together with the decision-block encoding relabels
        # every decision by the same permutation; the permuted model's warm-up
        # class 0 is the original's class argsort(perm)[0]
        model = make_model(n_tap=5, hidden=8, steps=3, seed=9)
        model.b_fc1[:] = 1.0  # make it actually spike
        cfg = model.config
        perm = np.array([2, 0, 3, 1])
        history, n_c = cfg.history, cfg.n_classes
        w_fc0_p = model.w_fc0.copy()
        base = history * 8
        for j in range(history):
            # the column for permuted label perm[c] must equal the original column for c
            w_fc0_p[:, base + j * n_c + perm] = model.w_fc0[:, base + j * n_c + np.arange(n_c)]
        permuted = EqualizerModel(
            config=cfg, lif=model.lif, encoder=model.encoder,
            w_fc0=w_fc0_p, b_fc0=model.b_fc0,
            w_fc1=model.w_fc1, b_fc1=model.b_fc1, w_fc2=model.w_fc2,
            w_fc3=model.w_fc3[np.argsort(perm)], b_fc3=model.b_fc3[np.argsort(perm)],
        )
        y = np.random.default_rng(10).uniform(0, 1, 80)
        base_out = sequential_equalize(y, model, fill_class=int(np.argsort(perm)[0]))
        np.testing.assert_array_equal(equalize_stream(y, permuted), perm[base_out])


def closed_loop_model(engine, n_tap, hidden, steps, seed, scale):
    """A random model run by one engine: "float", "qat" (QAT-float 8/8) or "int"
    (its integer twin)."""
    cfg = TopologyConfig(n_tap=n_tap, hidden=hidden, steps=steps)
    float_engine = engine == "float"
    model = EqualizerModel.initialize(
        cfg, LifParams() if float_engine else LifParams.shift_friendly(),
        EncoderConfig(0.0, 1.0), np.random.default_rng(seed),
        qat=None if float_engine else QatConfig(8, 8))
    for name in model.PARAM_NAMES:
        getattr(model, name)[:] *= scale
    if engine == "int":
        model = convert(model, FxpFormats())
    return model


@settings(max_examples=60, deadline=None)
@given(engine=st.sampled_from(["float", "qat", "int"]),
       mode=st.sampled_from(["feedback", "genie"]),
       n_tap=st.sampled_from([1, 3, 5, 9]), hidden=st.integers(1, 12),
       steps=st.integers(1, 4), scale=st.floats(0.5, 8.0),
       extra=st.integers(0, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_equalize_stream_equals_sequential_loop(counted_decisions, engine, mode, n_tap, hidden,
                                                steps, scale, extra, seed):
    # decisions and (integer engine) clip counts of the batched passes as
    # evaluate_ber counts them, and of the genie's teacher-forced windows in
    # one decider call, equal the per-symbol loop's; streams past 64
    # decisions need several passes
    assume(mode == "genie" or extra > 0)  # evaluate_ber decides 2 symbols or more
    try:
        model = closed_loop_model(engine, n_tap, hidden, steps, seed % 1000, scale)
    except ConversionError:
        return  # the worst case does not fit the accumulator: nothing to run
    rng = np.random.default_rng(seed)
    y = rng.uniform(-0.1, 1.1, model.config.history + 1 + extra)
    classes = rng.integers(0, model.config.n_classes, y.size)
    stats, expected_stats = {}, {}
    if mode == "feedback":
        got = counted_decisions(y, model, stats)
    else:
        windows, _ = teacher_forced_windows(y, classes, model.encoder, model.config)
        got = model.make_decider()(windows, stats)
    expected = sequential_equalize(y, model, mode=mode, true_classes=classes,
                                   stats=expected_stats)
    np.testing.assert_array_equal(got, expected)
    assert stats == expected_stats


def stream_windows(model, n_windows, seed):
    """Windows of n_windows symbols of a random stream, random classes fed back."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(-0.1, 1.1, model.config.history + n_windows)
    classes = rng.integers(0, model.config.n_classes, y.size)
    return teacher_forced_windows(y, classes, model.encoder, model.config)[0]


def test_qat_logits_do_not_depend_on_the_weight_layout():
    # the decider keeps its weights column-major, so that the transposes
    # forward multiplies by are row-major; under QAT 8/8 every term is dyadic
    # with few bits, every sum is exact, and the logits equal the stored
    # layout's bit for bit at every batch size
    model = closed_loop_model("qat", 17, 72, 5, seed=3, scale=3.0)
    cfg, windows = model.config, stream_windows(model, 70, seed=4)
    stored = model.effective_weights()
    col = {name: np.asfortranarray(w) for name, w in stored.items()}
    assert all(w.T.flags.c_contiguous for w in col.values())
    decide = model.make_decider()
    for rows in range(1, 71):
        logits, _ = forward(windows[:rows], stored, cfg, model.lif, model.qat)
        got, _ = forward(windows[:rows], col, cfg, model.lif, model.qat)
        np.testing.assert_array_equal(got, logits)
        np.testing.assert_array_equal(decide(windows[:rows]), np.argmax(logits, axis=1))
    assert len(np.unique(logits)) > 4  # the model spikes


@pytest.mark.parametrize("engine", ["float", "qat"])
def test_decider_calls_leave_earlier_results_alone(engine):
    # what a decider call returned stays as it was through later calls, of
    # any batch size
    model = closed_loop_model(engine, 9, 24, 3, seed=6, scale=5.0)
    windows, decide = stream_windows(model, 60, seed=6), model.make_decider()
    first = decide(windows[:40])
    kept = first.copy()
    other = decide(windows[40:])
    np.testing.assert_array_equal(decide(windows[:40]), kept)
    np.testing.assert_array_equal(decide(windows[40:]), other)
    np.testing.assert_array_equal(first, kept)
    assert len(set(kept.tolist())) > 1


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        model = make_model(n_tap=9, hidden=12, steps=4, seed=11)
        path = tmp_path / "model.npz"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.lif == model.lif
        assert loaded.encoder == model.encoder
        for name in model.PARAM_NAMES:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, header='{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_qat_roundtrip(self, tmp_path):
        model = make_model(seed=12)
        model.qat = QatConfig(weight_bits=6, state_bits=7)
        path = tmp_path / "model.npz"
        save_model(path, model)
        assert load_model(path).qat == model.qat

    def test_loads_version_1_file(self, tmp_path):
        # a container written key by key as version 1 defines it
        model = make_model(n_tap=3, hidden=2, steps=2, seed=13)
        header = {
            "format": "snndfe-model", "version": 1,
            "n_tap": 3, "bits_per_symbol": 2, "hidden": 2, "steps": 2,
            "lif": {"alpha_v": 0.1, "alpha_i": 0.2, "v_th": 1.0, "v_r": 0.0,
                    "v_leak": 0.0, "r": 1.0},
            "encoder": {"rx_min": 0.0, "rx_max": 1.0},
            "qat": {"weight_bits": 8, "state_bits": 8},
        }
        path = tmp_path / "v1.npz"
        np.savez(path, header=json.dumps(header), **model.parameters())
        loaded = load_model(path)
        assert loaded.config == model.config and loaded.lif == model.lif
        assert loaded.qat == QatConfig(8, 8)
        np.testing.assert_array_equal(loaded.w_fc2, model.w_fc2)

    def test_non_finite_encoder_end_in_header_rejected(self, tmp_path):
        # JSON headers can hold NaN; the loader must not build a model from it
        path = tmp_path / "model.npz"
        save_model(path, make_model(seed=15))
        with np.load(path) as data:
            content = {key: data[key] for key in data.files}
        header = json.loads(str(content["header"]))
        header["encoder"]["rx_min"] = float("nan")
        assert '"rx_min": NaN' in json.dumps(header)
        np.savez(path, **{**content, "header": json.dumps(header)})
        with pytest.raises(ValueError, match="finite"):
            load_model(path)

    def test_non_finite_lif_voltage_in_header_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(path, make_model(seed=15))
        edit_container(path, lambda header, arrays: header["lif"].update(v_th=float("nan")))
        with pytest.raises(ValueError, match="v_th"):
            load_model(path)

    def test_qat_state_bits_below_the_state_grid_refused(self, tmp_path):
        # the state grid keeps 3 integer bits, so 3 state bits leave no fraction
        with pytest.raises(ValueError, match="state_bits"):
            QatConfig(8, 3)
        model = make_model(seed=16)
        model.qat = QatConfig()
        path = tmp_path / "model.npz"
        save_model(path, model)
        edit_container(path, lambda header, arrays: header["qat"].update(state_bits=3))
        with pytest.raises(ValueError, match="state_bits"):
            load_model(path)

    @pytest.mark.parametrize("m", [1, 3])
    def test_non_pam4_file_refused(self, tmp_path, m):
        # the link is PAM-4 only, so no model of another order loads (and
        # none reaches evaluate_ber: TopologyConfig refuses one at construction)
        path = tmp_path / "model.npz"
        save_model(path, make_model(seed=14))
        edit_container(path, lambda header, arrays: header.update(bits_per_symbol=m))
        with pytest.raises(ValueError, match=rf"bits_per_symbol={m}.*BITS_PER_SYMBOL = 2"):
            load_model(path)

    @pytest.mark.parametrize("field", ["n_tap", "hidden", "steps"])
    def test_float_dimension_in_header_refused(self, tmp_path, field):
        # JSON keeps 5.0 a float, so a header can hold one: the loader must
        # refuse it, not build a model that fails when windows are built
        path = tmp_path / "model.npz"
        model = make_model(seed=14)
        save_model(path, model)
        value = float(getattr(model.config, field))
        edit_container(path, lambda header, arrays: header.update({field: value}))
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            load_model(path)

    @pytest.mark.parametrize("drop", ["hidden", "qat", "w_fc2", "lif.alpha_v",
                                      "encoder.rx_max", "qat.state_bits"])
    def test_missing_key_or_array_is_a_value_error(self, tmp_path, drop):
        path = tmp_path / "model.npz"
        model = make_model(seed=14)
        model.qat = QatConfig()
        save_model(path, model)
        drop_from_container(path, drop)
        with pytest.raises(ValueError, match=drop):
            load_model(path)


def edit_container(path, edit):
    """Rewrite an npz container after edit(header, arrays) changed its dicts."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files if key != "header"}
        header = json.loads(str(data["header"]))
    edit(header, arrays)
    np.savez(path, header=json.dumps(header), **arrays)


def drop_from_container(path, name):
    """Rewrite an npz container without array or header key `name`
    ("section.key" for a key of a header section)."""
    with np.load(path) as data:
        content = {key: data[key] for key in data.files if key != name}
    header = json.loads(str(content["header"]))
    section, _, key = name.rpartition(".")
    (header[section] if section else header).pop(key, None)
    np.savez(path, **{**content, "header": json.dumps(header)})
