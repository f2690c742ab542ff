"""Experiment orchestration: seeding, Monte-Carlo BER evaluation, baselines.

Every stochastic site derives its own generator as hash(master_seed, label),
so results are independent of scheduling and any single output can be
reproduced from the master seed and its label alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .channel import (BITS_PER_SYMBOL, N_CLASSES, ChannelConfig, bits_to_classes,
                      check_int, classes_to_bits, simulate_link)
from .equalizer import equalize_stream, teacher_forced_windows


class ConfigError(ValueError):
    """Invalid evaluation or training settings."""


def derive_seed(master_seed: int, label: str) -> int:
    """64-bit seed of one named site; ValueError unless master_seed is an
    integer >= 0 (channel.check_int): np.int64(3) derives what 3 does."""
    master_seed = check_int("seed", master_seed, 0)
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(master_seed: int, label: str) -> np.random.Generator:
    """Independent, schedule-free random stream for one named site."""
    return np.random.default_rng(derive_seed(master_seed, label))


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    bit_errors: int
    bits_counted: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_counted


@dataclass
class BerCurve:
    points: list


def count_bit_errors(true_classes, decided_classes, m: int) -> int:
    """Errored bits after Gray demapping two aligned class sequences."""
    true_bits = classes_to_bits(true_classes, m)
    decided_bits = classes_to_bits(decided_classes, m)
    return int(np.sum(true_bits != decided_bits))


def check_eval_symbols(symbols_per_snr: int, history: int) -> None:
    """ConfigError unless symbols_per_snr is an integer >= history + 2."""
    check_int("symbols_per_snr", symbols_per_snr, history + 2, error=ConfigError)


def _eval_frame(channel_cfg: ChannelConfig, snr_db, symbols: int, seed: int):
    """(classes, received stream) of the eval frame at one SNR, derived from
    (seed, snr_db) alone, so every receiver sees the same frame."""
    rng = derive_rng(seed, f"eval:snr={snr_db}")
    bits = rng.integers(0, 2, BITS_PER_SYMBOL * symbols)
    _, y = simulate_link(bits, channel_cfg, snr_db, rng)
    return bits_to_classes(bits, BITS_PER_SYMBOL), y


def evaluate_ber(model, channel_cfg: ChannelConfig, snrs_db, symbols_per_snr: int,
                 seed: int, mode: str = "feedback", stats: dict | None = None) -> BerCurve:
    """BER curve over fresh per-SNR channel realizations, closed loop
    (equalize_stream) in mode "feedback", teacher-forced windows decided in one
    call in mode "genie"; `stats` goes to the decider.

    The comparison window excludes the warm-up symbols (the model's history
    length). Deterministic: every SNR point uses its own derived seed. An
    unknown mode raises ConfigError.
    """
    if mode not in ("feedback", "genie"):
        raise ConfigError(f"unknown mode {mode!r}")
    cfg = model.config
    history = cfg.history
    check_eval_symbols(symbols_per_snr, history)
    points = []
    for snr_db in snrs_db:
        classes, y = _eval_frame(channel_cfg, snr_db, symbols_per_snr, seed)
        if mode == "genie":
            windows, _ = teacher_forced_windows(y, classes, model.encoder, cfg)
            decided = model.make_decider()(windows, stats)
        else:
            decided = equalize_stream(y, model, stats=stats)
        errors = count_bit_errors(classes[history:], decided, BITS_PER_SYMBOL)
        points.append(BerPoint(snr_db, errors, BITS_PER_SYMBOL * (symbols_per_snr - history)))
    return BerCurve(points)


PILOT_SYMBOLS = 4096  # the frame the unequalized receiver fits its class means on


def evaluate_baseline_ber(channel_cfg: ChannelConfig, m: int, snrs_db,
                          symbols_per_snr: int, seed: int, warmup: int = 0) -> BerCurve:
    """BER of the unequalized hard-decision receiver on the same eval frames.

    Per SNR the receiver takes each class's mean over a PILOT_SYMBOLS pilot
    frame of its own derived stream, then decides every sample as the class
    of the nearest mean. It uses the same derived eval streams as
    evaluate_ber, so comparisons are paired, and skips the first `warmup`
    symbols (default 0): callers pass warmup=model.config.history to count
    the bits evaluate_ber counts. m must be channel.BITS_PER_SYMBOL,
    symbols_per_snr an integer >= 1 and warmup one in [0, symbols_per_snr),
    or ConfigError is raised.
    """
    if m != BITS_PER_SYMBOL:
        raise ConfigError(f"bits_per_symbol={m}, but the link is PAM-4 "
                          f"(channel.BITS_PER_SYMBOL = {BITS_PER_SYMBOL})")
    check_int("symbols_per_snr", symbols_per_snr, 1, error=ConfigError)
    check_int("warmup", warmup, 0, symbols_per_snr - 1, error=ConfigError)
    points = []
    for snr_db in snrs_db:
        pilot_rng = derive_rng(seed, f"pilot:snr={snr_db}")
        pilot_bits = pilot_rng.integers(0, 2, m * PILOT_SYMBOLS)
        pilot_classes = bits_to_classes(pilot_bits, m)
        _, pilot_y = simulate_link(pilot_bits, channel_cfg, snr_db, pilot_rng)
        means = np.array([np.mean(pilot_y[pilot_classes == c]) for c in range(N_CLASSES)])

        classes, y = _eval_frame(channel_cfg, snr_db, symbols_per_snr, seed)
        decided = np.argmin(np.abs(y[:, None] - means), axis=1)
        errors = count_bit_errors(classes[warmup:], decided[warmup:], m)
        points.append(BerPoint(snr_db, errors, m * (symbols_per_snr - warmup)))
    return BerCurve(points)
