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
                      check_int, check_pam4, classes_to_bits, simulate_link)
from .equalizer import equalize_stream, teacher_forced_windows


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
    """ValueError unless symbols_per_snr is an integer >= history + 2."""
    check_int("symbols_per_snr", symbols_per_snr, history + 2)


def _eval_frame(channel_cfg: ChannelConfig, snr_db: float, symbols: int, seed: int):
    """(classes, received stream) of the eval frame at one SNR, derived from
    (seed, snr_db) alone, so every receiver sees the same frame."""
    rng = derive_rng(seed, f"eval:snr={snr_db}")
    bits = rng.integers(0, 2, BITS_PER_SYMBOL * symbols)
    _, y = simulate_link(bits, channel_cfg, snr_db, rng)
    return bits_to_classes(bits, BITS_PER_SYMBOL), y


def _ber_curve(receiver, channel_cfg: ChannelConfig, snrs_db, symbols: int, seed: int,
               skip: int) -> BerCurve:
    """Count one receiver on the eval frames: per SNR, receiver(snr_db, y)
    decides symbols skip..N-1 of the frame, and the point holds their bit
    errors. The SNR is a float first, so 17 and 17.0 derive one frame."""
    points = []
    for snr_db in snrs_db:
        snr_db = float(snr_db + 0.0)  # + 0.0 refuses a str (TypeError), as float() would not
        classes, y = _eval_frame(channel_cfg, snr_db, symbols, seed)
        errors = count_bit_errors(classes[skip:], receiver(snr_db, y), BITS_PER_SYMBOL)
        points.append(BerPoint(snr_db, errors, BITS_PER_SYMBOL * (symbols - skip)))
    return BerCurve(points)


def evaluate_ber(model, channel_cfg: ChannelConfig, snrs_db, symbols_per_snr: int,
                 seed: int, stats: dict | None = None) -> BerCurve:
    """BER curve of the model's closed loop (equalize_stream) over fresh
    per-SNR channel realizations, counted after the warm-up (the model's
    history length). Deterministic: every SNR point uses its own derived seed.
    ValueError unless symbols_per_snr passes check_eval_symbols.

    With `stats`, the loop's final windows (its own decisions fed back, the
    warm-up as class 0) are decided once more, in one call, to count the
    integer engine's clips exactly as deciding them one by one would.
    """
    cfg = model.config
    check_eval_symbols(symbols_per_snr, cfg.history)

    def closed_loop(snr_db, y):
        decided = equalize_stream(y, model)
        if stats is not None:
            fed = np.concatenate([np.zeros(cfg.history, dtype=np.int64), decided])
            model.make_decider()(teacher_forced_windows(y, fed, model.encoder, cfg)[0], stats)
        return decided

    return _ber_curve(closed_loop, channel_cfg, snrs_db, symbols_per_snr, seed, cfg.history)


PILOT_SYMBOLS = 4096  # the frame the unequalized receiver fits its class means on


def evaluate_baseline_ber(channel_cfg: ChannelConfig, m: int, snrs_db,
                          symbols_per_snr: int, seed: int, warmup: int = 0) -> BerCurve:
    """BER of the unequalized hard-decision receiver on evaluate_ber's frames.

    Per SNR the receiver takes each class's mean over a PILOT_SYMBOLS pilot
    frame of its own derived stream, then decides every sample as the class
    of the nearest mean. Comparisons are paired; the first `warmup` symbols
    (default 0) are skipped: callers pass warmup=model.config.history to
    count the bits evaluate_ber counts. ValueError unless m passes
    channel.check_pam4, symbols_per_snr is an integer >= 1 and warmup one in
    [0, symbols_per_snr).
    """
    check_pam4(m)
    check_int("symbols_per_snr", symbols_per_snr, 1)
    check_int("warmup", warmup, 0, symbols_per_snr - 1)

    def nearest_mean(snr_db, y):
        pilot_rng = derive_rng(seed, f"pilot:snr={snr_db}")
        pilot_bits = pilot_rng.integers(0, 2, BITS_PER_SYMBOL * PILOT_SYMBOLS)
        pilot_classes = bits_to_classes(pilot_bits, BITS_PER_SYMBOL)
        _, pilot_y = simulate_link(pilot_bits, channel_cfg, snr_db, pilot_rng)
        means = np.array([np.mean(pilot_y[pilot_classes == c]) for c in range(N_CLASSES)])
        return np.argmin(np.abs(y[warmup:, None] - means), axis=1)

    return _ber_curve(nearest_mean, channel_cfg, snrs_db, symbols_per_snr, seed, warmup)
