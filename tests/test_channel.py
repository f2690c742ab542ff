import math

import numpy as np
import pytest

from snndfe.channel import (
    ChannelConfig,
    PamAlphabet,
    SignalBuffer,
    add_awgn,
    bits_to_classes,
    chromatic_dispersion,
    classes_to_bits,
    gray_demap,
    gray_map,
    rrc_taps,
    simulate_link,
    square_law,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TestGrayMapping:
    def test_canonical_pam4_assignment(self):
        # bit groups 00, 01, 11, 10 land on the amplitude-ascending levels
        bits = [0, 0, 0, 1, 1, 1, 1, 0]
        np.testing.assert_allclose(gray_map(bits, PamAlphabet()), [0.0, 1.0, SQRT2, SQRT3])

    def test_empty_input(self):
        assert gray_map([], PamAlphabet()).size == 0

    def test_length_not_divisible(self):
        with pytest.raises(ValueError):
            gray_map([0, 1, 1], PamAlphabet())

    def test_adjacent_levels_differ_in_one_bit(self):
        alphabet = PamAlphabet()
        patterns = [classes_to_bits([c], 2) for c in range(4)]
        for a, b in zip(patterns, patterns[1:]):
            assert int(np.sum(a != b)) == 1

    def test_roundtrip_exhaustive(self):
        # all 4**k symbol sequences for k <= 6, via exhaustive enumeration
        alphabet = PamAlphabet()
        for k in range(1, 7):
            for word in range(4 ** k):
                classes = [(word >> (2 * i)) & 3 for i in range(k)]
                bits = classes_to_bits(classes, 2)
                symbols = gray_map(bits, alphabet)
                np.testing.assert_array_equal(gray_demap(symbols, alphabet), bits)
                np.testing.assert_array_equal(bits_to_classes(bits, 2), classes)


class TestRrcTaps:
    def test_symmetry_exact(self):
        taps = rrc_taps(0.2, 40, 2)
        assert len(taps) == 81
        np.testing.assert_array_equal(taps, taps[::-1])

    def test_unit_energy(self):
        taps = rrc_taps(0.2, 40, 2)
        assert abs(np.dot(taps, taps) - 1.0) <= 1e-12

    def test_nyquist_isi_of_self_convolution(self):
        # numeric convolution oracle: the raised-cosine response must be ~zero
        # at nonzero symbol-spaced offsets (truncation leaves <= 1e-3 of peak)
        sps = 2
        taps = rrc_taps(0.2, 40, sps)
        rc = np.convolve(taps, taps)
        center = len(rc) // 2
        peak = rc[center]
        offsets = rc[center % sps :: sps]
        isi = np.delete(offsets, center // sps)
        assert np.max(np.abs(isi)) <= 1e-3 * peak

    @pytest.mark.parametrize("rolloff", [0.1, 0.2, 0.5, 1.0])
    def test_singular_points_finite(self, rolloff):
        taps = rrc_taps(rolloff, 16, 4)
        assert np.all(np.isfinite(taps))


class TestChromaticDispersion:
    def test_zero_length_is_identity(self):
        cfg = ChannelConfig(fiber_length_km=0.0)
        rng = np.random.default_rng(0)
        sig = SignalBuffer(rng.standard_normal(256), cfg.sample_rate_hz)
        out = chromatic_dispersion(sig, cfg)
        np.testing.assert_array_equal(out.samples, sig.samples.astype(complex))

    def test_energy_preserving(self):
        cfg = ChannelConfig()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        out = chromatic_dispersion(SignalBuffer(x, cfg.sample_rate_hz), cfg)
        ratio = np.sum(np.abs(out.samples) ** 2) / np.sum(np.abs(x) ** 2)
        assert abs(ratio - 1.0) <= 1e-9

    def test_phase_matches_transfer_function(self):
        # scalar oracle: a pure tone at bin k picks up exactly the H(f) phase
        cfg = ChannelConfig()
        n, k = 1024, 37
        fs = cfg.sample_rate_hz
        f = k * fs / n
        tone = np.exp(2j * np.pi * k * np.arange(n) / n)
        out = chromatic_dispersion(SignalBuffer(tone, fs), cfg)
        lam = cfg.wavelength_nm * 1e-9
        d_si = cfg.dispersion_ps_nm_km * 1e-6
        expected = -np.pi * lam ** 2 * d_si * (cfg.fiber_length_km * 1e3) * f ** 2 / 299792458.0
        measured = np.angle(np.mean(out.samples / tone))
        assert abs((measured - expected + np.pi) % (2 * np.pi) - np.pi) < 1e-9

    def test_empty_buffer_rejected(self):
        cfg = ChannelConfig()
        with pytest.raises(ValueError):
            chromatic_dispersion(SignalBuffer(np.array([]), cfg.sample_rate_hz), cfg)


class TestSquareLaw:
    def test_real_negative(self):
        out = square_law(SignalBuffer(np.array([-2.0]), 1.0))
        np.testing.assert_allclose(out.samples, [4.0])

    def test_complex_magnitude(self):
        out = square_law(SignalBuffer(np.array([3.0 + 4.0j]), 1.0))
        np.testing.assert_allclose(out.samples, [25.0])

    def test_zero_and_nonnegative(self):
        out = square_law(SignalBuffer(np.zeros(8), 1.0))
        np.testing.assert_array_equal(out.samples, np.zeros(8))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        assert np.all(square_law(SignalBuffer(x, 1.0)).samples >= 0)


class TestSignalBuffer:
    def test_odd_length_float32_accepted(self):
        # three float32 samples cannot be viewed as float64
        buf = SignalBuffer(np.zeros(3, dtype=np.float32), 1.0)
        assert len(buf) == 3

    def test_integer_bit_pattern_of_nan_accepted(self):
        # the int64 0x7FF8000000000000 is an integer, not a NaN
        SignalBuffer(np.array([0x7FF8000000000000], dtype=np.int64), 1.0)

    def test_float32_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SignalBuffer(np.array([np.nan, 0.0], dtype=np.float32), 1.0)

    def test_complex_infinity_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SignalBuffer(np.array([1.0, complex(0.0, np.inf)]), 1.0)


class TestAddAwgn:
    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_nan_and_minus_infinite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            add_awgn(SignalBuffer(np.arange(10.0), 1.0), snr_db, np.random.default_rng(0))

    def test_infinite_snr_is_identity(self):
        x = np.arange(10.0)
        out = add_awgn(SignalBuffer(x, 1.0), math.inf, np.random.default_rng(0))
        np.testing.assert_array_equal(out.samples, x)

    def test_empirical_snr(self):
        # Monte-Carlo oracle: measured SNR within +/-0.1 dB over 1e6 samples
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1_000_000) + 2.0
        sig = SignalBuffer(x, 1.0)
        for snr_db in (5.0, 17.0):
            out = add_awgn(sig, snr_db, np.random.default_rng(42))
            noise = out.samples - x
            measured = 10.0 * np.log10(np.mean(x ** 2) / np.mean(noise ** 2))
            assert abs(measured - snr_db) < 0.1

    def test_same_seed_bit_identical(self):
        x = np.arange(100.0)
        a = add_awgn(SignalBuffer(x, 1.0), 10.0, np.random.default_rng(7))
        b = add_awgn(SignalBuffer(x, 1.0), 10.0, np.random.default_rng(7))
        np.testing.assert_array_equal(a.samples, b.samples)


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
        centers = np.array([np.mean(y.samples[classes == c]) for c in range(4)])
        assert np.all(np.diff(centers) > 0)
        decided = np.argmin(np.abs(y.samples[:, None] - centers[None, :]), axis=1)
        assert np.mean(decided != classes) <= 1e-2

    def test_noiseless_cluster_means_match_kernel_expansion(self):
        # analytic oracle: E[y | x_k = a] from the second-order Volterra kernels
        # of the tx-RRC -> square-law -> rx-RRC chain, computed directly from
        # the tap vector rather than by running the link
        cfg = ChannelConfig(fiber_length_km=0.0)
        g = rrc_taps(cfg.rolloff, cfg.rrc_span_symbols, cfg.sps)
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
        levels = PamAlphabet().levels()
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
        fitted = np.array([np.mean(y.samples[classes == c]) for c in range(4)])
        np.testing.assert_allclose(fitted, predicted, atol=0.02)

    def test_determinism(self):
        cfg = ChannelConfig()
        bits = np.random.default_rng(5).integers(0, 2, 2 * 300)
        _, y1 = simulate_link(bits, cfg, 12.0, np.random.default_rng(9))
        _, y2 = simulate_link(bits, cfg, 12.0, np.random.default_rng(9))
        np.testing.assert_array_equal(y1.samples, y2.samples)
