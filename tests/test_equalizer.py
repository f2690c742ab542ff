import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndfe.channel import ChannelConfig, bits_to_classes, simulate_link
from snndfe.equalizer import (
    EncoderConfig,
    EqualizerModel,
    TopologyConfig,
    encode_window,
    equalize_stream,
    forward,
    input_size,
    load_model,
    mac_count,
    save_model,
)
from snndfe.lif import LifParams
from snndfe.quant import QatConfig
from snndfe.train import teacher_forced_windows


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


class TestSizing:
    def test_input_size_paper_values(self):
        assert input_size(41, 2) == 248
        assert input_size(17, 2) == 104
        assert input_size(1, 2) == 8

    def test_even_tap_count_rejected(self):
        with pytest.raises(ValueError):
            input_size(16, 2)

    def test_mac_count_paper_values(self):
        assert mac_count(80, 248, 10, 2) == 329600
        assert mac_count(72, 104, 5, 2) == 90720
        assert mac_count(56, 104, 5, 2) == 61600

    def test_mac_count_monotone(self):
        base = mac_count(24, 104, 5)
        assert mac_count(25, 104, 5) > base
        assert mac_count(24, input_size(19, 2), 5) > base
        assert mac_count(24, 104, 6) > base


class TestEncodeWindow:
    def test_decision_one_hot(self):
        encoder = EncoderConfig(0.0, 1.0)
        vec = encode_window([0.0, 0.0], [2], encoder, m=2)
        np.testing.assert_array_equal(vec[8:12], [0.0, 0.0, 1.0, 0.0])

    def test_block_structure_17_taps(self):
        encoder = EncoderConfig(0.0, 1.0)
        rng = np.random.default_rng(0)
        vec = encode_window(rng.uniform(0, 1, 9), rng.integers(0, 4, 8), encoder, m=2)
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

    @settings(max_examples=100, deadline=None)
    @given(ends=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True),
           samples=st.lists(st.floats(allow_nan=False), max_size=50))
    def test_bins_monotone_with_edges_at_ends(self, ends, samples):
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

    def test_window_length_mismatch(self):
        with pytest.raises(ValueError):
            encode_window([0.0, 0.0, 0.0], [1], EncoderConfig(0.0, 1.0), m=2)


@settings(max_examples=60, deadline=None)
@given(rx_min=st.floats(-2.0, 2.0), span=st.one_of(st.just(0.0), st.floats(-1.0, 3.0)),
       n_tap=st.sampled_from([1, 3, 5, 9, 17]), m=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_prebinned_windows_match_encode_window(rx_min, span, n_tap, m, seed):
    # windows built from one binning of the whole stream (as the training
    # batches and the closed loop build them) against the per-window encoder
    encoder = EncoderConfig(rx_min, rx_min + span)
    cfg = TopologyConfig(n_tap=n_tap, bits_per_symbol=m, hidden=1, steps=1)
    rng = np.random.default_rng(seed)
    history = cfg.history
    y = rng.uniform(rx_min - 1.0, rx_min + abs(span) + 1.0, history + 12)
    y[rng.integers(0, y.size, 2)] = [encoder.rx_min, encoder.rx_max]  # bin edges
    fed = rng.integers(0, cfg.n_classes, y.size)
    windows, labels = teacher_forced_windows(y, fed, encoder, cfg)
    np.testing.assert_array_equal(labels, fed[history:])
    for k in range(history, y.size):
        expected = encode_window(y[k - history : k + 1], fed[k - history : k], encoder, m)
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
        assert model.make_decider()(encoded) == 0

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
        # symbol correctly, so feedback and genie buffers stay identical
        rng = np.random.default_rng(5)
        classes = rng.integers(0, 4, 200)
        y = classes.astype(float)
        encoder = EncoderConfig(-0.25, 3.25)
        bins = encoder.bin_indices(np.arange(4.0))
        bin_to_class = np.zeros(8, dtype=int)
        for b in range(8):
            bin_to_class[b] = int(np.argmin(np.abs(bins - b)))
        model = build_bin_classifier_model(bin_to_class, encoder)

        fb = equalize_stream(y, model, mode="feedback")
        genie = equalize_stream(y, model, mode="genie", true_classes=classes)
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
        encoder = EncoderConfig(float(y.samples.min()), float(y.samples.max()))
        model = EqualizerModel.initialize(cfg, lif, encoder, np.random.default_rng(22), qat=qat)
        for name in model.PARAM_NAMES:
            getattr(model, name)[:] *= 3.0
        fill = 1
        decisions = equalize_stream(y, model, fill_class=fill)
        assert len(set(decisions.tolist())) > 1  # not a constant decider
        fed = np.concatenate([np.full(cfg.history, fill), decisions])
        windows, labels = teacher_forced_windows(y.samples, fed, encoder, cfg)
        np.testing.assert_array_equal(labels, decisions)
        logits, _ = forward(windows, model.effective_weights(), cfg, lif, qat)
        np.testing.assert_array_equal(np.argmax(logits, axis=1), decisions)

    def test_class_permutation_equivariance(self):
        # permuting fc3 rows together with the decision-block encoding relabels
        # every decision by the same permutation
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
        base_out = equalize_stream(y, model, fill_class=0)
        perm_out = equalize_stream(y, permuted, fill_class=int(perm[0]))
        np.testing.assert_array_equal(perm_out, perm[base_out])


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


def drop_from_container(path, name):
    """Rewrite an npz container without array or header key `name`
    ("section.key" for a key of a header section)."""
    with np.load(path) as data:
        content = {key: data[key] for key in data.files if key != name}
    header = json.loads(str(content["header"]))
    section, _, key = name.rpartition(".")
    (header[section] if section else header).pop(key, None)
    np.savez(path, **{**content, "header": json.dumps(header)})
