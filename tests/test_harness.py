import numpy as np
import pytest

from snndfe import harness
from snndfe.channel import ChannelConfig
from snndfe.equalizer import EncoderConfig, EqualizerModel, TopologyConfig
from snndfe.harness import derive_rng, derive_seed, evaluate_baseline_ber, evaluate_ber
from snndfe.lif import LifParams
from snndfe.train import TrainConfig


def small_model():
    return EqualizerModel.initialize(TopologyConfig(n_tap=7, hidden=4, steps=1), LifParams(),
                                     EncoderConfig(0.0, 1.0), np.random.default_rng(0))


@pytest.mark.parametrize("m", [1, 3])
def test_evaluate_baseline_ber_rejects_non_pam4(m):
    with pytest.raises(ValueError, match=rf"bits_per_symbol={m}.*channel\.BITS_PER_SYMBOL = 2"):
        evaluate_baseline_ber(ChannelConfig(), m, (17.0,), 50, seed=1)


def test_a_numpy_integer_seed_derives_the_streams_of_the_int():
    assert derive_seed(np.int64(3), "init") == derive_seed(3, "init")
    assert TrainConfig(seed=np.int64(3)) == TrainConfig(seed=3)
    assert type(TrainConfig(seed=np.int64(3)).seed) is int
    assert (derive_rng(np.uint8(3), "batch:0").integers(0, 2 ** 62, 4).tolist()
            == derive_rng(3, "batch:0").integers(0, 2 ** 62, 4).tolist())


@pytest.mark.parametrize("warmup", [-5, 100, 200])
def test_evaluate_baseline_ber_rejects_warmup_outside_the_frame(warmup):
    with pytest.raises(ValueError, match="warmup"):
        evaluate_baseline_ber(ChannelConfig(), 2, (17.0,), 100, seed=1, warmup=warmup)


def test_evaluate_baseline_ber_counts_after_the_warmup():
    point, = evaluate_baseline_ber(ChannelConfig(), 2, (17.0,), 100, seed=1, warmup=99).points
    assert point.bits_counted == 2 and 0 <= point.bit_errors <= 2
    # with the model's history as warm-up, it counts the bits evaluate_ber counts
    model = small_model()
    snn, = evaluate_ber(model, ChannelConfig(), (17.0,), 100, seed=1).points
    base, = evaluate_baseline_ber(ChannelConfig(), 2, (17.0,), 100, seed=1,
                                  warmup=model.config.history).points
    assert base.bits_counted == snn.bits_counted == 2 * (100 - 3)


def test_an_snr_derives_one_frame_whatever_its_number_type():
    # the eval and pilot frames are keyed by the float SNR: an int 17 used to
    # derive other noise than 17.0 (380 baseline bit errors against 384)
    model, snrs = small_model(), (17, 17.0, np.int64(17), np.float64(17.0))
    base = [evaluate_baseline_ber(ChannelConfig(), 2, (snr,), 2000, seed=1).points[0]
            for snr in snrs]
    snn = [evaluate_ber(model, ChannelConfig(), (snr,), 200, seed=1).points[0] for snr in snrs]
    assert base == [base[1]] * 4 and snn == [snn[1]] * 4
    assert base[1].bit_errors == 384
    assert all(type(point.snr_db) is float for point in base + snn)
    with pytest.raises(TypeError):
        evaluate_baseline_ber(ChannelConfig(), 2, ("17",), 100, seed=1)


def test_every_receiver_is_counted_on_the_same_frames(monkeypatch):
    frames = []
    eval_frame = harness._eval_frame

    def recorded(*args):
        frames.append((args, *eval_frame(*args)))
        return frames[-1][1:]

    monkeypatch.setattr(harness, "_eval_frame", recorded)
    model = small_model()
    evaluate_ber(model, ChannelConfig(), (14, 17.0), 100, seed=1)
    evaluate_baseline_ber(ChannelConfig(), 2, (14, 17.0), 100, seed=1,
                          warmup=model.config.history)
    assert [args[1] for args, _, _ in frames] == [14.0, 17.0] * 2
    for (snn_args, snn_classes, snn_y), (base_args, base_classes, base_y) in zip(frames[:2],
                                                                                frames[2:]):
        assert snn_args == base_args
        np.testing.assert_array_equal(snn_classes, base_classes)
        np.testing.assert_array_equal(snn_y, base_y)
