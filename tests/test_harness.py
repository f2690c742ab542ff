import numpy as np
import pytest

from snndfe.channel import ChannelConfig
from snndfe.equalizer import EncoderConfig, EqualizerModel, TopologyConfig
from snndfe.harness import (ConfigError, derive_rng, derive_seed, evaluate_baseline_ber,
                            evaluate_ber)
from snndfe.lif import LifParams
from snndfe.train import TrainConfig

@pytest.mark.parametrize("m", [1, 3])
def test_evaluate_baseline_ber_rejects_non_pam4(m):
    with pytest.raises(ConfigError, match=rf"bits_per_symbol={m}.*channel\.BITS_PER_SYMBOL = 2"):
        evaluate_baseline_ber(ChannelConfig(), m, (17.0,), 50, seed=1)


def test_a_numpy_integer_seed_derives_the_streams_of_the_int():
    assert derive_seed(np.int64(3), "init") == derive_seed(3, "init")
    assert TrainConfig(seed=np.int64(3)) == TrainConfig(seed=3)
    assert type(TrainConfig(seed=np.int64(3)).seed) is int
    assert (derive_rng(np.uint8(3), "batch:0").integers(0, 2 ** 62, 4).tolist()
            == derive_rng(3, "batch:0").integers(0, 2 ** 62, 4).tolist())


@pytest.mark.parametrize("warmup", [-5, 100, 200])
def test_evaluate_baseline_ber_rejects_warmup_outside_the_frame(warmup):
    with pytest.raises(ConfigError, match="warmup"):
        evaluate_baseline_ber(ChannelConfig(), 2, (17.0,), 100, seed=1, warmup=warmup)


def test_evaluate_baseline_ber_counts_after_the_warmup():
    point, = evaluate_baseline_ber(ChannelConfig(), 2, (17.0,), 100, seed=1, warmup=99).points
    assert point.bits_counted == 2 and 0 <= point.bit_errors <= 2
    # with the model's history as warm-up, it counts the bits evaluate_ber counts
    model = EqualizerModel.initialize(TopologyConfig(n_tap=7, hidden=4, steps=1), LifParams(),
                                      EncoderConfig(0.0, 1.0), np.random.default_rng(0))
    snn, = evaluate_ber(model, ChannelConfig(), (17.0,), 100, seed=1).points
    base, = evaluate_baseline_ber(ChannelConfig(), 2, (17.0,), 100, seed=1,
                                  warmup=model.config.history).points
    assert base.bits_counted == snn.bits_counted == 2 * (100 - 3)


def test_evaluate_ber_rejects_an_unknown_mode():
    model = EqualizerModel.initialize(TopologyConfig(n_tap=3, hidden=4, steps=1), LifParams(),
                                      EncoderConfig(0.0, 1.0), np.random.default_rng(0))
    with pytest.raises(ConfigError, match="unknown mode 'teacher'"):
        evaluate_ber(model, ChannelConfig(), (17.0,), 50, seed=1, mode="teacher")
