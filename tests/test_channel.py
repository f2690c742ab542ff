import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snndfe import channel
from snndfe.channel import (
    BITS_PER_SYMBOL,
    PAM4_LEVELS,
    ChannelConfig,
    add_awgn,
    bits_to_classes,
    chromatic_dispersion,
    check_int,
    check_pam4,
    check_snr,
    classes_to_bits,
    gray_map,
    rrc_taps,
    simulate_link,
    square_law,
)
from snndfe.dse import DseSpace, TrialScale, search
from snndfe.equalizer import EncoderConfig, TopologyConfig, teacher_forced_windows
from snndfe.fxp import FxpFormats
from snndfe.harness import (check_eval_symbols, count_bit_errors, derive_seed,
                            evaluate_baseline_ber)
from snndfe.lif import LifParams
from snndfe.quant import QatConfig
from snndfe.train import TrainConfig

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TestGrayMapping:
    def test_canonical_pam4_assignment(self):
        # bit groups 00, 01, 11, 10 land on the amplitude-ascending levels
        bits = [0, 0, 0, 1, 1, 1, 1, 0]
        np.testing.assert_allclose(gray_map(bits), [0.0, 1.0, SQRT2, SQRT3])
        assert PAM4_LEVELS == (0.0, 1.0, SQRT2, SQRT3) and BITS_PER_SYMBOL == 2

    def test_empty_input(self):
        assert gray_map([]).size == 0

    def test_length_not_divisible(self):
        with pytest.raises(ValueError):
            gray_map([0, 1, 1])

    def test_adjacent_levels_differ_in_one_bit(self):
        patterns = [classes_to_bits([c], 2) for c in range(4)]
        for a, b in zip(patterns, patterns[1:]):
            assert int(np.sum(a != b)) == 1

    def test_roundtrip_exhaustive(self):
        # all 4**k symbol sequences for k <= 6, via exhaustive enumeration
        for k in range(1, 7):
            for word in range(4 ** k):
                classes = [(word >> (2 * i)) & 3 for i in range(k)]
                bits = classes_to_bits(classes, 2)
                np.testing.assert_array_equal(gray_map(bits), np.array(PAM4_LEVELS)[classes])
                np.testing.assert_array_equal(bits_to_classes(bits, 2), classes)


class TestRrcTaps:
    def test_symmetry_exact(self):
        taps = rrc_taps(ChannelConfig(rolloff=0.2, rrc_span_symbols=40, sps=2))
        assert len(taps) == 81
        np.testing.assert_array_equal(taps, taps[::-1])

    def test_unit_energy(self):
        taps = rrc_taps(ChannelConfig(rolloff=0.2, rrc_span_symbols=40, sps=2))
        assert abs(np.dot(taps, taps) - 1.0) <= 1e-12

    def test_nyquist_isi_of_self_convolution(self):
        # numeric convolution oracle: the raised-cosine response must be ~zero
        # at nonzero symbol-spaced offsets (truncation leaves <= 1e-3 of peak)
        sps = 2
        taps = rrc_taps(ChannelConfig(rolloff=0.2, rrc_span_symbols=40, sps=sps))
        rc = np.convolve(taps, taps)
        center = len(rc) // 2
        peak = rc[center]
        offsets = rc[center % sps :: sps]
        isi = np.delete(offsets, center // sps)
        assert np.max(np.abs(isi)) <= 1e-3 * peak

    @pytest.mark.parametrize("rolloff", [0.1, 0.2, 0.5, 1.0])
    def test_singular_points_finite(self, rolloff):
        taps = rrc_taps(ChannelConfig(rolloff=rolloff, rrc_span_symbols=16, sps=4))
        assert np.all(np.isfinite(taps))

    def test_cached_taps_are_read_only(self):
        # every caller shares one array per (rolloff, span, sps): configs that
        # differ only in the fiber or the symbol rate included
        taps = rrc_taps(ChannelConfig())
        assert rrc_taps(ChannelConfig()) is taps
        assert rrc_taps(ChannelConfig(fiber_length_km=0.0, baud_rate_gbd=28.0)) is taps
        assert rrc_taps(ChannelConfig(rolloff=0.3)) is not taps
        assert not taps.flags.writeable
        with pytest.raises(ValueError):
            taps[0] = 0.0
        np.testing.assert_array_equal(channel._rrc_taps.__wrapped__(0.2, 40, 2), taps)


class TestChromaticDispersion:
    def test_zero_length_is_identity(self):
        cfg = ChannelConfig(fiber_length_km=0.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(256)
        np.testing.assert_array_equal(chromatic_dispersion(x, cfg), x.astype(complex))

    def test_energy_preserving(self):
        cfg = ChannelConfig()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        out = chromatic_dispersion(x, cfg)
        ratio = np.sum(np.abs(out) ** 2) / np.sum(np.abs(x) ** 2)
        assert abs(ratio - 1.0) <= 1e-9

    def test_phase_matches_transfer_function(self):
        # scalar oracle: a pure tone at bin k picks up exactly the H(f) phase
        cfg = ChannelConfig()
        n, k = 1024, 37
        fs = cfg.sample_rate_hz
        f = k * fs / n
        tone = np.exp(2j * np.pi * k * np.arange(n) / n)
        out = chromatic_dispersion(tone, cfg)
        lam = cfg.wavelength_nm * 1e-9
        d_si = cfg.dispersion_ps_nm_km * 1e-6
        expected = -np.pi * lam ** 2 * d_si * (cfg.fiber_length_km * 1e3) * f ** 2 / 299792458.0
        measured = np.angle(np.mean(out / tone))
        assert abs((measured - expected + np.pi) % (2 * np.pi) - np.pi) < 1e-9

    def test_empty_buffer_rejected(self):
        cfg = ChannelConfig()
        with pytest.raises(ValueError):
            chromatic_dispersion(np.array([]), cfg)


class TestSquareLaw:
    def test_real_negative(self):
        np.testing.assert_allclose(square_law(np.array([-2.0])), [4.0])

    def test_complex_magnitude(self):
        np.testing.assert_allclose(square_law(np.array([3.0 + 4.0j])), [25.0])

    def test_zero_and_nonnegative(self):
        np.testing.assert_array_equal(square_law(np.zeros(8)), np.zeros(8))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        assert np.all(square_law(x) >= 0)


# Each public stage checks its input: a NaN or infinite sample raises.
STAGES = {
    "chromatic_dispersion": lambda x: chromatic_dispersion(x, ChannelConfig()),
    "square_law": square_law,
    "add_awgn": lambda x: add_awgn(x, 17.0, np.random.default_rng(0)),
}


class TestStageInputs:
    def test_odd_length_float32_accepted(self):
        # three float32 samples cannot be viewed as float64
        for stage in STAGES.values():
            assert len(stage(np.zeros(3, dtype=np.float32))) == 3

    def test_integer_bit_pattern_of_nan_accepted(self):
        # the int64 0x7FF8000000000000 is an integer, not a NaN
        for stage in STAGES.values():
            stage(np.array([0x7FF8000000000000], dtype=np.int64))

    def test_float32_nan_rejected(self):
        for name, stage in STAGES.items():
            with pytest.raises(ValueError, match=f"{name} requires finite"):
                stage(np.array([np.nan, 0.0], dtype=np.float32))

    def test_complex_infinity_rejected(self):
        for name, stage in STAGES.items():
            with pytest.raises(ValueError, match=f"{name} requires finite"):
                stage(np.array([1.0, complex(0.0, np.inf)]))


class TestAddAwgn:
    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_nan_and_minus_infinite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            add_awgn(np.arange(10.0), snr_db, np.random.default_rng(0))

    @pytest.mark.parametrize("x, snr_db", [([1e200, 1.0], 17.0), ([1.0, 2.0], -4000.0)])
    def test_overflow_rejected(self, x, snr_db):
        # the mean square of 1e200 overflows; at -4000 dB the noise power does
        with pytest.raises(ValueError, match="overflows"):
            add_awgn(np.array(x), snr_db, np.random.default_rng(0))

    def test_infinite_snr_is_identity(self):
        x = np.arange(10.0)
        out = add_awgn(x, math.inf, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_empirical_snr(self):
        # Monte-Carlo oracle: measured SNR within +/-0.1 dB over 1e6 samples
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1_000_000) + 2.0
        for snr_db in (5.0, 17.0):
            noise = add_awgn(x, snr_db, np.random.default_rng(42)) - x
            measured = 10.0 * np.log10(np.mean(x ** 2) / np.mean(noise ** 2))
            assert abs(measured - snr_db) < 0.1

    def test_complex_samples_rejected(self):
        # the link adds noise to the detected intensity, which is real
        with pytest.raises(ValueError, match="real intensity"):
            add_awgn(np.array([1.0 + 0.0j, 2.0 + 1.0j]), 17.0, np.random.default_rng(0))

    def test_same_seed_bit_identical(self):
        x = np.arange(100.0)
        a = add_awgn(x, 10.0, np.random.default_rng(7))
        b = add_awgn(x, 10.0, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestSimulateLink:
    def test_output_length_matches_symbol_count(self):
        cfg = ChannelConfig()
        bits = np.random.default_rng(0).integers(0, 2, 2 * 500)
        symbols, y = simulate_link(bits, cfg, 17.0, np.random.default_rng(1))
        assert len(y) == symbols.size == 500

    def test_noiseless_back_to_back_clusters(self):
        # cluster-analysis oracle: with no fiber and no noise the received
        # samples form 4 ordered clusters dominated by the current symbol.
        # The square-law before the receive filter leaves a small deterministic
        # ISI floor, so the clusters are tight but not points.
        cfg = ChannelConfig(fiber_length_km=0.0)
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 2 * 10_000)
        classes = bits_to_classes(bits, 2)
        _, y = simulate_link(bits, cfg, math.inf, np.random.default_rng(0))
        centers = np.array([np.mean(y[classes == c]) for c in range(4)])
        assert np.all(np.diff(centers) > 0)
        decided = np.argmin(np.abs(y[:, None] - centers[None, :]), axis=1)
        assert np.mean(decided != classes) <= 1e-2

    def test_noiseless_cluster_means_match_kernel_expansion(self):
        # analytic oracle: E[y | x_k = a] from the second-order Volterra kernels
        # of the tx-RRC -> square-law -> rx-RRC chain, computed directly from
        # the tap vector rather than by running the link
        cfg = ChannelConfig(fiber_length_km=0.0)
        g = rrc_taps(cfg)
        half_span = cfg.rrc_span_symbols  # symbol offsets with any tap overlap
        pad = 2 * half_span * cfg.sps
        gp = np.pad(g, (pad, pad))
        center = pad + (len(g) - 1) // 2
        n = np.arange(len(gp))

        def w(dj, dl):
            a = np.roll(gp, 2 * dj)
            b = np.roll(gp, 2 * dl)
            return float(np.sum(a * b * gp))  # rx tap is symmetric

        offs = [d for d in range(-half_span, half_span + 1) if d != 0]
        levels = np.array(PAM4_LEVELS)
        mu1, mu2 = np.mean(levels), np.mean(levels ** 2)
        q0 = w(0, 0)
        diag = sum(w(d, d) for d in offs)
        cross_cur = sum(w(0, d) for d in offs)
        cross_rest = sum(w(dj, dl) for dj in offs for dl in offs if dj != dl)
        predicted = q0 * levels ** 2 + 2 * mu1 * cross_cur * levels \
            + mu2 * diag + mu1 ** 2 * cross_rest

        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 2 * 20_000)
        classes = bits_to_classes(bits, 2)
        _, y = simulate_link(bits, cfg, math.inf, np.random.default_rng(0))
        fitted = np.array([np.mean(y[classes == c]) for c in range(4)])
        np.testing.assert_allclose(fitted, predicted, atol=0.02)

    def test_determinism(self):
        cfg = ChannelConfig()
        bits = np.random.default_rng(5).integers(0, 2, 2 * 300)
        _, y1 = simulate_link(bits, cfg, 12.0, np.random.default_rng(9))
        _, y2 = simulate_link(bits, cfg, 12.0, np.random.default_rng(9))
        np.testing.assert_array_equal(y1, y2)


# SHA-256 of (symbols, y) from simulate_link over 400 symbols: bits from
# default_rng(seed), noise from default_rng(seed + 1). y's last bits follow
# OpenBLAS's kernel family (np.convolve's dot products), so they are recorded
# by tests/blas_digests.py on its Haswell kernels and one thread.
GOLDEN_LINK = {
    (11, 5.0, 17.0): ("5af487a0ae6b4f0e380891655fa7294be9098fcf3163af4bd4b992ba3a301356",
                      "28205523a876dd747e90e7afc484160b93204514250d04d314c0e9c89cd9664d"),
    (11, 5.0, math.inf): ("5af487a0ae6b4f0e380891655fa7294be9098fcf3163af4bd4b992ba3a301356",
                          "4319796de38a487dcc5e6fd67c987fcdee11534bc0cba30660d2ed30e9392b90"),
    (11, 0.0, 17.0): ("5af487a0ae6b4f0e380891655fa7294be9098fcf3163af4bd4b992ba3a301356",
                      "d400cabfc4b9ca7e2fb287f467828e6868223af78c3cc98211a770c187bfd1c6"),
    (11, 0.0, math.inf): ("5af487a0ae6b4f0e380891655fa7294be9098fcf3163af4bd4b992ba3a301356",
                          "a053883f4eea7f1f8079aa24c6edd473a2ccd56a024e3cb02da43a54fb8a1397"),
    (2024, 5.0, 17.0): ("01229f1f2675c31d4d5b0c492ad4336f9967f2538dd6d55c0e1531cd68926131",
                        "74281e4005ab1385610fa83288ccec367765d3778237dfcee54ed3b6bf7d0db4"),
    (2024, 5.0, math.inf): ("01229f1f2675c31d4d5b0c492ad4336f9967f2538dd6d55c0e1531cd68926131",
                            "ce93da2a0d703238dd9c8a95e543cc446bcb30c0f7b4886d36f714a267dd95cc"),
    (2024, 0.0, 17.0): ("01229f1f2675c31d4d5b0c492ad4336f9967f2538dd6d55c0e1531cd68926131",
                        "84e744b98d2d95bbbac95f0e5305ccb93256b8e6abd5bfcaa2a5368b129cdc5c"),
    (2024, 0.0, math.inf): ("01229f1f2675c31d4d5b0c492ad4336f9967f2538dd6d55c0e1531cd68926131",
                            "63f4c3e3e46146b3783811128373176fc7687a50bf4ea28f0fb27bf8920e75d2"),
}


def link_digests(seed, fiber_length_km, snr_db):
    """GOLDEN_LINK's digests of one case, as this process computes them."""
    cfg = ChannelConfig() if fiber_length_km else ChannelConfig(fiber_length_km=0)
    bits = np.random.default_rng(seed).integers(0, 2, 2 * 400)
    symbols, y = simulate_link(bits, cfg, snr_db, np.random.default_rng(seed + 1))
    assert symbols.shape == y.shape == (400,)
    return [hashlib.sha256(np.asarray(a, dtype=np.float64).tobytes()).hexdigest()
            for a in (symbols, y)]


@pytest.mark.parametrize("seed, fiber_length_km, snr_db", sorted(GOLDEN_LINK))
def test_simulate_link_golden(blas_digests, seed, fiber_length_km, snr_db):
    # computed on OpenBLAS's Haswell kernels, whatever this runner's are
    got = blas_digests["link"][repr((seed, fiber_length_km, snr_db))]
    assert tuple(got) == GOLDEN_LINK[seed, fiber_length_km, snr_db]


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.integers(0, 1), max_size=40).filter(lambda b: len(b) % 2 == 0))
def test_gray_round_trip_and_adjacency(bits):
    bits = np.array(bits, dtype=np.int64)
    classes = bits_to_classes(bits, 2)
    assert classes.dtype == np.int64 and classes.shape == (bits.size // 2,)
    np.testing.assert_array_equal(classes_to_bits(classes, 2), bits)
    # neighbouring amplitude ranks differ in exactly one bit, over the whole alphabet
    labels = classes_to_bits(np.arange(4), 2).reshape(-1, 2)
    assert np.all(np.sum(labels[1:] != labels[:-1], axis=1) == 1)


@pytest.mark.parametrize("m", [1, 3])
def test_non_pam4_bit_groups_refused(m):
    # the link is PAM-4: every codec entry point refuses another group width
    for call in (lambda: check_pam4(m), lambda: bits_to_classes([0] * 6, m),
                 lambda: classes_to_bits([0, 1], m), lambda: count_bit_errors([0], [1], m)):
        with pytest.raises(ValueError, match=rf"bits_per_symbol={m}.*BITS_PER_SYMBOL = 2"):
            call()


# Bits and classes the PAM-4 tables cannot map. Each used to map to a wrong
# class or bit pair (a class 1.5 to class 1's), or to fail with an IndexError.
UNMAPPABLE = {
    "bit_negative": (lambda: bits_to_classes([0, -1], 2), "bits must be 0 or 1"),  # class 2
    "bit_fraction": (lambda: bits_to_classes([0.5, 1], 2), "bits must be 0 or 1"),  # class 1
    "bit_2": (lambda: bits_to_classes([2, 1], 2), "bits must be 0 or 1"),  # IndexError
    "bit_nan": (lambda: gray_map([0.0, float("nan")]), "bits must be 0 or 1"),
    "class_negative": (lambda: classes_to_bits([-1], 2), r"classes must be in \[0, 4\)"),
    "class_4": (lambda: classes_to_bits([1, 4], 2), r"classes must be in \[0, 4\)"),
    "class_fraction": (lambda: classes_to_bits([1.5], 2), r"classes must be in \[0, 4\)"),
    # a NaN or infinite class emitted a RuntimeWarning in the int cast first
    "class_nan": (lambda: classes_to_bits([1.0, math.nan], 2), r"classes must be in \[0, 4\)"),
    "class_inf": (lambda: classes_to_bits([math.inf], 2), r"classes must be in \[0, 4\)"),
    "class_minus_inf": (lambda: classes_to_bits([-math.inf], 2), r"classes must be in \[0, 4\)"),
    **{f"teacher_forced_class_{label}": (
        lambda c=c: teacher_forced_windows(np.zeros(4), [0.0, 1.0, c, 2.0], EncoderConfig(0.0, 1.0),
                                           TopologyConfig(n_tap=3)), r"classes must be in \[0, 4\)")
       for label, c in (("nan", math.nan), ("inf", math.inf), ("minus_inf", -math.inf),
                        ("fraction", 1.5))},
    # -1 demapped as class 3, so no bit error was counted
    "count_class_negative": (lambda: count_bit_errors([3], [-1], 2), "classes must be in"),
}


@pytest.mark.parametrize("case", UNMAPPABLE)
def test_unmappable_bits_and_classes_refused(case):
    call, match = UNMAPPABLE[case]
    with pytest.raises(ValueError, match=match):
        call()


def test_bools_and_integral_floats_map_as_bits():
    np.testing.assert_array_equal(bits_to_classes([True, False, 1.0, 1.0], 2), [3, 2])


def test_check_int_returns_a_plain_int_or_names_the_field():
    assert check_int("n", np.int64(5), 1, 8) == 5 and type(check_int("n", np.uint8(5), 1)) is int
    for value, hi, match in ((True, 8, "n must be an integer, got True"), (5.0, 8, "got 5.0"),
                             ("5", 8, "got '5'"), (0, None, r"n must be >= 1, got 0"),
                             (9, 8, r"n must be in \[1, 8\], got 9")):
        with pytest.raises(ValueError, match=match):
            check_int("n", value, 1, hi)


def test_check_snr_returns_a_plain_float_or_refuses():
    for snr, want in ((17, 17.0), (np.int64(14), 14.0), (np.float32(20.5), 20.5),
                      (math.inf, math.inf), (-300.0, -300.0)):
        assert check_snr(snr) == want and type(check_snr(snr)) is float
    for snr in (True, np.bool_(False), "17", math.nan, np.float64("nan"), -math.inf, None, 1j):
        with pytest.raises(ValueError, match="snr_db must be a real number above -inf"):
            check_snr(snr)


NAN, INF = float("nan"), float("inf")
TINY_SPACE = DseSpace(n_taps=(3,), hidden=(2,), steps=(1,))

# Each value a config or count argument refuses where it is set; each of them
# used to be accepted, or to fail later with another error (TypeError in
# rng.integers or a slice, ZeroDivisionError in simulate_link, a json error on
# save), or to be ignored (r).
REFUSALS = {
    "check_pam4_float": (lambda: check_pam4(2.0), "bits_per_symbol must be an integer"),
    "topology_bits_per_symbol_float": (lambda: TopologyConfig(bits_per_symbol=2.0),
                                       "bits_per_symbol must be an integer"),
    "qat_weight_bits_float": (lambda: QatConfig(8.0, 8), "weight_bits must be an integer"),
    "qat_state_bits_float": (lambda: QatConfig(8, 8.0), "state_bits must be an integer"),
    "fxp_weight_bits_float": (lambda: FxpFormats(8.0), "weight_bits must be an integer"),
    "fxp_state_bits_float": (lambda: FxpFormats(8, 8.0), "state_bits must be an integer"),
    "fxp_acc_bits_float": (lambda: FxpFormats(8, 8, 32.0), "acc_bits must be an integer"),
    "dse_bits_float": (lambda: DseSpace(bits=(8.0,)), "weight_bits must be an integer"),
    "train_epochs_float": (lambda: TrainConfig(epochs=1.0), "epochs must be an integer"),
    "train_batches_float": (lambda: TrainConfig(batches_per_epoch=2.0), "batches_per_epoch"),
    "train_batch_size_float": (lambda: TrainConfig(batch_size=2.5), "batch_size must be an int"),
    "train_learning_rate_nan": (lambda: TrainConfig(learning_rate=NAN), "learning_rate must"),
    "train_learning_rate_inf": (lambda: TrainConfig(learning_rate=INF), "learning_rate must"),
    "scale_batch_size_float": (lambda: TrialScale(batch_size=2.5), "batch_size must be an int"),
    "scale_train_symbols_below_a_batch": (lambda: TrialScale(train_symbols=499),
                                          "train_symbols must be >= 500, got 499"),
    "scale_train_symbols_float": (lambda: TrialScale(train_symbols=600.0), "train_symbols"),
    "scale_eval_symbols_0": (lambda: TrialScale(eval_symbols=0), "eval_symbols must be >= 1"),
    "scale_eval_symbols_float": (lambda: TrialScale(eval_symbols=100.0), "eval_symbols"),
    "channel_sps_float": (lambda: ChannelConfig(sps=2.0), "sps must be an integer"),
    "channel_span_float": (lambda: ChannelConfig(rrc_span_symbols=40.0), "rrc_span_symbols"),
    "channel_length_nan": (lambda: ChannelConfig(fiber_length_km=NAN), "fiber_length_km"),
    "channel_length_inf": (lambda: ChannelConfig(fiber_length_km=INF), "fiber_length_km"),
    "channel_dispersion_nan": (lambda: ChannelConfig(dispersion_ps_nm_km=NAN), "dispersion"),
    "channel_dispersion_inf": (lambda: ChannelConfig(dispersion_ps_nm_km=-INF), "dispersion"),
    "channel_wavelength_0": (lambda: ChannelConfig(wavelength_nm=0.0), "wavelength_nm > 0"),
    "channel_wavelength_nan": (lambda: ChannelConfig(wavelength_nm=NAN), "wavelength_nm"),
    "channel_baud_rate_0": (lambda: ChannelConfig(baud_rate_gbd=0), "baud_rate_gbd > 0"),
    "channel_baud_rate_negative": (lambda: ChannelConfig(baud_rate_gbd=-50.0), "baud_rate_gbd"),
    "channel_baud_rate_inf": (lambda: ChannelConfig(baud_rate_gbd=INF), "baud_rate_gbd"),
    "lif_v_leak": (lambda: LifParams(v_leak=0.3), "v_leak = 0"),
    "lif_r": (lambda: LifParams(r=2.0), "r = 1"),
    "search_budget_float": (lambda: search(TINY_SPACE, ChannelConfig(), "grid", 2.5, 0,
                                           os.devnull), "budget must be an integer"),
    "eval_symbols_float": (lambda: check_eval_symbols(22.5, 20),
                           "symbols_per_snr must be an integer"),
    "baseline_warmup_float": (lambda: evaluate_baseline_ber(ChannelConfig(), 2, (17.0,), 100,
                                                            seed=1, warmup=2.5),
                              "warmup must be an integer"),
    "baseline_symbols_float": (lambda: evaluate_baseline_ber(ChannelConfig(), 2, (17.0,), 50.5,
                                                             seed=1),
                               "symbols_per_snr must be an integer"),
    "baseline_symbols_0": (lambda: evaluate_baseline_ber(ChannelConfig(), 2, (17.0,), 0, seed=1),
                           "symbols_per_snr must be >= 1, got 0"),
    # a float or bool master seed derived other streams than the equal int
    "derive_seed_float": (lambda: derive_seed(3.0, "init"), "seed must be an integer, got 3.0"),
    "derive_seed_bool": (lambda: derive_seed(True, "init"), "seed must be an integer, got True"),
    "derive_seed_negative": (lambda: derive_seed(-1, "init"), "seed must be >= 0, got -1"),
    "train_seed_float": (lambda: TrainConfig(seed=3.0), "seed must be an integer, got 3.0"),
    "train_seed_bool": (lambda: TrainConfig(seed=True), "seed must be an integer, got True"),
    "train_seed_negative": (lambda: TrainConfig(seed=-1), "seed must be >= 0, got -1"),
    "search_seed_float": (lambda: search(TINY_SPACE, ChannelConfig(), "grid", 1, 3.0, os.devnull),
                          "seed must be an integer, got 3.0"),
    "search_seed_bool": (lambda: search(TINY_SPACE, ChannelConfig(), "grid", 1, True, os.devnull),
                         "seed must be an integer, got True"),
    "search_seed_negative": (lambda: search(TINY_SPACE, ChannelConfig(), "grid", 1, -1,
                                            os.devnull), "seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused_where_it_is_set(case):
    call, match = REFUSALS[case]
    with pytest.raises(ValueError, match=match):
        call()
