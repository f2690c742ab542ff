import numpy as np
import pytest

from snndfe.equalizer import EncoderConfig, EqualizerModel, TopologyConfig, forward
from snndfe.lif import LifParams, lif_step


def fresh(shape):
    """lif_step's out= arrays: (v, i, spikes, v_pre)."""
    return [np.empty(shape) for _ in range(4)]


def step(v, i, drive, params):
    v, i, spikes, _ = lif_step(np.array(v, dtype=float), np.array(i, dtype=float),
                               np.array(drive, dtype=float), params, out=fresh(np.shape(v)))
    return v, i, spikes


def run_neuron(drive, params, w_in):
    """One neuron driven by w_in * drive[t] for T steps: spikes, v, v_pre per step."""
    v, i = np.zeros(1), np.zeros(1)
    rows = []
    for x in drive:
        v, i, spikes, v_pre = lif_step(v, i, np.array([w_in * x]), params, out=fresh(1))
        rows.append((spikes[0], v[0], v_pre[0]))
    return np.array(rows).T


def random_model(seed, hidden=7, steps=9, n_tap=3):
    cfg = TopologyConfig(n_tap=n_tap, hidden=hidden, steps=steps)
    model = EqualizerModel.initialize(cfg, LifParams(), EncoderConfig(0.0, 1.0),
                                      np.random.default_rng(seed))
    for name in model.PARAM_NAMES:
        getattr(model, name)[:] *= 3.0
    return model


def random_windows(model, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((n, model.config.n_input)) < 0.2).astype(float)


def test_zero_state_zero_drive_is_fixed_point():
    v, i, spikes = step(np.zeros(3), np.zeros(3), np.zeros(3), LifParams())
    np.testing.assert_array_equal(v, np.zeros(3))
    np.testing.assert_array_equal(i, np.zeros(3))
    np.testing.assert_array_equal(spikes, np.zeros(3))


def test_single_step_spike_and_reset():
    params = LifParams(alpha_v=0.5)
    v, i, spikes = step([0.0], [0.0], [10.0], params)
    # i' = 10, v_pre = 0.5*10 = 5 >= v_th -> spike, hard reset
    assert spikes[0] == 1.0
    assert v[0] == params.v_r
    assert i[0] == 10.0


def test_decay_arithmetic():
    params = LifParams(alpha_v=0.125)
    v, _, spikes = step([1.0], [0.0], [0.0], params)
    assert v[0] == 0.875
    assert spikes[0] == 0.0


def test_threshold_tie_spikes():
    params = LifParams(alpha_v=0.5, v_th=1.0)
    v, _, spikes = step([0.0], [0.0], [2.0], params)  # v_pre = exactly 1.0
    assert spikes[0] == 1.0
    assert v[0] == params.v_r


def test_geometric_voltage_decay():
    params = LifParams()
    v0 = 0.7
    v, i = np.array([v0]), np.zeros(1)
    for k in range(1, 20):
        v, i, _ = step(v, i, [0.0], params)
        assert abs(v[0] - v0 * (1.0 - params.alpha_v) ** k) <= 1e-12


def test_spikes_are_binary_and_reset_exact():
    rng = np.random.default_rng(0)
    params = LifParams()
    v, i = np.zeros((4, 6)), np.zeros((4, 6))
    for _ in range(12):
        v, i, spikes, v_pre = lif_step(v, i, rng.standard_normal((4, 6)) * 3.0, params,
                                       out=fresh((4, 6)))
        assert set(np.unique(spikes)).issubset({0.0, 1.0})
        fired = spikes > 0
        np.testing.assert_array_equal(v[fired], np.full(int(fired.sum()), params.v_r))
        np.testing.assert_array_equal(v[~fired], v_pre[~fired])


def test_unroll_without_recurrence_matches_independent_steps():
    # the forward's T-step unroll equals lif_step driven by the fc1 drive,
    # which is fc1(fc0 window) at step 1 and fc1(fc0 bias) afterwards
    model = random_model(seed=1)
    model.w_fc2[:] = 0.0
    windows = random_windows(model, 5, seed=2)
    logits, tape = forward(windows, model.parameters(), model.config, model.lif, keep=True)
    a0 = windows @ model.w_fc0.T + model.b_fc0
    v = i = np.zeros((5, model.config.hidden))
    expected = np.zeros_like(logits)
    for t in range(model.config.steps):
        fc0 = a0 if t == 0 else model.b_fc0
        v, i, spikes, _ = lif_step(v, i, np.broadcast_to(fc0 @ model.w_fc1.T + model.b_fc1,
                                                         v.shape), model.lif, out=fresh(v.shape))
        np.testing.assert_array_equal(tape["s"][t], spikes)
        expected += spikes @ model.w_fc3.T + model.b_fc3
    np.testing.assert_array_equal(logits, expected)


def test_unroll_deterministic():
    model = random_model(seed=2)
    windows = random_windows(model, 10, seed=3)
    a, _ = forward(windows, model.parameters(), model.config, model.lif)
    b, _ = forward(windows, model.parameters(), model.config, model.lif)
    np.testing.assert_array_equal(a, b)


def test_permutation_equivariance():
    # relabelling the hidden neurons permutes the spikes and leaves the logits
    model = random_model(seed=3)
    perm = np.random.default_rng(4).permutation(model.config.hidden)
    permuted = EqualizerModel(
        config=model.config, lif=model.lif, encoder=model.encoder,
        w_fc0=model.w_fc0[perm], b_fc0=model.b_fc0[perm],
        w_fc1=model.w_fc1[perm][:, perm], b_fc1=model.b_fc1[perm],
        w_fc2=model.w_fc2[perm][:, perm],
        w_fc3=model.w_fc3[:, perm], b_fc3=model.b_fc3,
    )
    windows = random_windows(model, 9, seed=5)
    z, tape = forward(windows, model.parameters(), model.config, model.lif, keep=True)
    z_p, tape_p = forward(windows, permuted.parameters(), model.config, model.lif, keep=True)
    for s, s_p in zip(tape["s"], tape_p["s"]):
        np.testing.assert_array_equal(s_p, s[:, perm])
    np.testing.assert_allclose(z_p, z, rtol=1e-12, atol=1e-12)


def test_zero_steps_rejected():
    with pytest.raises(ValueError, match="steps"):
        TopologyConfig(n_tap=3, hidden=2, steps=0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        lif_step(np.zeros(3), np.zeros(3), np.zeros(4), LifParams(), out=fresh(3))


def test_burst_pattern_fires_once_per_burst():
    # one isolated input spike (subthreshold), two 3-spike bursts: the voltage
    # climbs across each burst, crosses threshold once, and resets to v_r
    params = LifParams()
    inputs = np.zeros(130)
    inputs[[10, 40, 41, 42, 90, 91, 92]] = 1.0
    spikes, v, v_pre = run_neuron(inputs, params, w_in=1.3)
    fired = np.flatnonzero(spikes)
    assert len(fired) == 2
    burst_starts = np.flatnonzero(inputs)[[1, 4]]
    assert burst_starts[0] <= fired[0] < burst_starts[0] + 15
    assert burst_starts[1] <= fired[1] < burst_starts[1] + 15
    for t in fired:
        assert v[t] == params.v_r
        assert v_pre[t] >= params.v_th


@pytest.mark.parametrize("name", ["v_th", "v_r", "v_leak"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_voltage_rejected(name, value):
    # a NaN threshold would construct a neuron that never spikes
    with pytest.raises(ValueError, match=name):
        LifParams(**{name: value})
