"""Simulation of the optical IM/DD link: PAM-4 over fiber with square-law detection.

The link is PAM-4 only: its alphabet is PAM4_LEVELS with BITS_PER_SYMBOL Gray
bits per symbol, mapped by two fixed 4-entry tables, and the stages pass
plain sample arrays.

Transmit chain: Gray-mapped PAM-4 symbols, 2x upsampling, RRC pulse shaping.
Fiber: chromatic dispersion (all-pass quadratic phase), square-law photodiode,
AWGN on the detected (real) intensity. Receive chain: matched RRC,
downsample to one sample per symbol, group-delay compensated so y[k] lines
up with x[k].
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

# PAM-4 amplitudes, ascending; level k carries the Gray label of class k
PAM4_LEVELS = (0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0))
BITS_PER_SYMBOL = 2
N_CLASSES = 2 ** BITS_PER_SYMBOL


@dataclass(frozen=True)
class ChannelConfig:
    """Link parameters. Defaults: 5 km SSMF at 50 GBd, 1550 nm, RRC roll-off 0.2.
    ValueError unless every quantity is finite, the length >= 0, the wavelength
    and baud rate > 0, rolloff in (0, 1], and the counts (check_int, stored as
    plain ints) sps >= 1 and rrc_span_symbols even and >= 8."""

    fiber_length_km: float = 5.0
    dispersion_ps_nm_km: float = 17.0
    wavelength_nm: float = 1550.0
    baud_rate_gbd: float = 50.0
    sps: int = 2
    rolloff: float = 0.2
    # 40-symbol support keeps the truncation ISI of the RRC pair below 1e-3
    # of the raised-cosine peak; 32 lands just above that bound.
    rrc_span_symbols: int = 40

    def __post_init__(self):
        for name in ("fiber_length_km", "dispersion_ps_nm_km", "wavelength_nm", "baud_rate_gbd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.fiber_length_km < 0 or min(self.wavelength_nm, self.baud_rate_gbd) <= 0:
            raise ValueError("need fiber_length_km >= 0, wavelength_nm > 0 and baud_rate_gbd > 0")
        if not 0.0 < self.rolloff <= 1.0:
            raise ValueError("rolloff must be in (0, 1]")
        for name, lo in (("sps", 1), ("rrc_span_symbols", 8)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))
        if self.rrc_span_symbols % 2:
            raise ValueError(f"rrc_span_symbols must be even, got {self.rrc_span_symbols}")

    @property
    def sample_rate_hz(self) -> float:
        return self.baud_rate_gbd * 1e9 * self.sps


def _finite(x, stage: str) -> np.ndarray:
    """x as an array; a NaN or infinite sample raises ValueError."""
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{stage} requires finite samples")
    return x


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """value as a plain int; ValueError naming the field unless it is an integer
    (numpy's too, not bool) in [lo, hi], hi None for no upper bound."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return int(value)


def check_pam4(m) -> int:
    """m as a plain int; ValueError unless it is the link's bits per symbol (PAM-4)."""
    if check_int("bits_per_symbol", m, 1) != BITS_PER_SYMBOL:
        raise ValueError(f"bits_per_symbol={m}, but the link is PAM-4 "
                         f"(channel.BITS_PER_SYMBOL = {BITS_PER_SYMBOL})")
    return BITS_PER_SYMBOL


# Gray labels: class k (amplitude rank) carries the bit pair _CLASS_BITS[k],
# MSB first; _PAIR_CLASS inverts it, indexed by the pair as a 2-bit number.
_CLASS_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.int64)
_PAIR_CLASS = np.array([0, 1, 3, 2], dtype=np.int64)


def check_classes(name: str, classes) -> np.ndarray:
    """classes as an int64 array; ValueError naming them unless each is an
    integer in [0, N_CLASSES)."""
    given = np.asarray(classes)
    if given.dtype.kind in "iu":
        valid = given.min(initial=0) >= 0 and given.max(initial=0) < N_CLASSES
    else:  # by value, before any cast: casting NaN or inf to int warns
        valid = np.isin(given, np.arange(N_CLASSES)).all()
    if not valid:
        raise ValueError(f"{name} must be in [0, {N_CLASSES}), as integers")
    return given.astype(np.int64, copy=False)


def check_snr(snr_db) -> float:
    """snr_db as a plain float; ValueError unless it is a real number (numpy's
    too, not a bool or str) other than NaN and -inf. +inf means no noise."""
    if isinstance(snr_db, bool) or not isinstance(snr_db, numbers.Real) or not snr_db > -math.inf:
        raise ValueError(f"snr_db must be a real number above -inf, got {snr_db!r}")
    return float(snr_db)


def bits_to_classes(bits, m: int = 2) -> np.ndarray:
    """Pack bit pairs (MSB first) into amplitude-rank class indices; m must be 2.
    ValueError unless every bit is 0 or 1 and their count is even."""
    check_pam4(m)
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0 or 1")
    if bits.size % m != 0:
        raise ValueError(f"bit count {bits.size} not divisible by m={m}")
    pairs = bits.astype(np.int64, copy=False).reshape(-1, m)
    return _PAIR_CLASS[2 * pairs[:, 0] + pairs[:, 1]]


def classes_to_bits(classes, m: int = 2) -> np.ndarray:
    """Inverse of bits_to_classes; ValueError for a class outside [0, N_CLASSES)."""
    check_pam4(m)
    return _CLASS_BITS[check_classes("classes", classes)].reshape(-1)


def gray_map(bits) -> np.ndarray:
    """Map a bit sequence onto the PAM-4 amplitudes (Gray labelling)."""
    return np.array(PAM4_LEVELS)[bits_to_classes(bits, BITS_PER_SYMBOL)]


def rrc_taps(cfg: ChannelConfig) -> np.ndarray:
    """The link's root-raised-cosine taps: rrc_span_symbols*sps + 1 of them, unit
    energy, exactly symmetric about the center, read-only and cached on the
    three fields they depend on. The removable singularities at t = 0 and
    t = +/- Ts/(4*rolloff) (a rolloff ChannelConfig keeps > 0) are filled with
    their analytic limits.
    """
    return _rrc_taps(cfg.rolloff, cfg.rrc_span_symbols, cfg.sps)


@functools.cache
def _rrc_taps(beta: float, span_symbols: int, sps: int) -> np.ndarray:
    # Evaluate on t >= 0 only and mirror: the impulse response is even in t,
    # and mirroring keeps the symmetry exact in floating point.
    t = np.arange(span_symbols * sps // 2 + 1, dtype=float) / sps
    h = np.empty_like(t)
    h[0] = 1.0 - beta + 4.0 * beta / np.pi
    sing = np.isclose(t, 1.0 / (4.0 * beta))
    regular = ~sing
    regular[0] = False
    tr = t[regular]
    num = np.sin(np.pi * tr * (1.0 - beta)) + 4.0 * beta * tr * np.cos(np.pi * tr * (1.0 + beta))
    den = np.pi * tr * (1.0 - (4.0 * beta * tr) ** 2)
    h[regular] = num / den
    h[sing] = (beta / math.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * math.sin(np.pi / (4.0 * beta))
        + (1.0 - 2.0 / np.pi) * math.cos(np.pi / (4.0 * beta))
    )
    taps = np.concatenate([h[:0:-1], h])
    taps /= math.sqrt(float(np.dot(taps, taps)))
    taps.flags.writeable = False  # shared by every caller through the cache
    return taps


def chromatic_dispersion(x, cfg: ChannelConfig) -> np.ndarray:
    """Apply fiber dispersion as an all-pass quadratic-phase filter over the frame
    sampled at cfg.sample_rate_hz; returns complex samples.

    H(f) = exp(-1j * pi * lambda^2 * D * L / c * f^2); dispersion only, no loss.
    """
    x = _finite(x, "chromatic_dispersion")
    if x.size == 0:
        raise ValueError("chromatic_dispersion: empty input")
    lam = cfg.wavelength_nm * 1e-9
    d_si = cfg.dispersion_ps_nm_km * 1e-6  # ps/(nm km) -> s/m^2
    length = cfg.fiber_length_km * 1e3
    if length == 0.0 or d_si == 0.0:
        return x.astype(np.complex128)
    freqs = np.fft.fftfreq(x.size, d=1.0 / cfg.sample_rate_hz)
    phase = -np.pi * lam * lam * d_si * length / SPEED_OF_LIGHT * freqs * freqs
    return np.fft.ifft(np.fft.fft(x.astype(np.complex128)) * np.exp(1j * phase))


def square_law(x) -> np.ndarray:
    """Photodiode model: out[k] = |x[k]|^2, real and nonnegative."""
    x = _finite(x, "square_law")
    return (x.real * x.real + x.imag * x.imag).astype(np.float64)


def add_awgn(x, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add white Gaussian noise at the requested SNR to a real signal (the
    detected intensity); ValueError for complex samples.

    Noise power is referenced to the empirical mean square of the input, so
    10*log10(P_signal/P_noise) = snr_db. On the detected signal that total
    power includes its DC part: at the default link it is about 4.9 dB above
    the AC power, so the AC SNR is that much below snr_db. snr_db = +inf
    returns a copy of the input; an snr_db check_snr refuses raises
    ValueError, and so does a signal power or noisy output that overflows.
    """
    x = _finite(x, "add_awgn")
    if np.iscomplexobj(x):
        raise ValueError("add_awgn adds noise to a real intensity, got complex samples")
    snr_db = check_snr(snr_db)
    if snr_db == math.inf:
        return x.copy()
    with np.errstate(all="ignore"):  # an overflow is reported by the checks below
        p_signal = float(np.mean(np.abs(x) ** 2))
        if not math.isfinite(p_signal):
            raise ValueError("add_awgn: the signal power overflows")
        p_noise = p_signal / np.float64(10.0) ** (snr_db / 10.0)
        noisy = x + math.sqrt(p_noise) * rng.standard_normal(x.size)
    if not np.all(np.isfinite(noisy)):
        raise ValueError(f"add_awgn: the noisy output overflows at {snr_db} dB")
    return noisy


def simulate_link(tx_bits, cfg: ChannelConfig, snr_db: float, rng: np.random.Generator):
    """Run the full link and return (tx symbols, received samples at 1 sps).

    Stage order: gray_map -> upsample (zero insertion) -> RRC -> chromatic
    dispersion -> square law -> AWGN -> matched RRC -> downsample. The total
    group delay of the two RRC filters is trimmed so y[k] corresponds to x[k];
    the output has exactly one sample per transmitted symbol. snr_db is
    referenced to the total detected power, DC included (see add_awgn).
    """
    symbols = gray_map(tx_bits)
    n_sym = symbols.size
    taps = rrc_taps(cfg)

    up = np.zeros(n_sym * cfg.sps)
    up[:: cfg.sps] = symbols
    shaped = np.convolve(up, taps)
    detected = square_law(chromatic_dispersion(shaped, cfg))
    noisy = add_awgn(detected, snr_db, rng)
    matched = np.convolve(noisy, taps)

    # Each 'full' convolution delays the peak by (len(taps)-1)/2 samples.
    delay = len(taps) - 1
    idx = delay + cfg.sps * np.arange(n_sym)
    return symbols, matched[idx]
