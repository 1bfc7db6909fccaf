"""Calibrated channel impairments: clock offset, carrier offset, AWGN.

The clock offset is realized with the same 8-tap Lagrange fractional-delay
interpolation the receiver's tracking loop uses (evaluated at exact
per-sample delays), so the channel's model class matches the receiver's.
Es/N0 is defined per symbol at the nominal input oversampling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .demod.interp import ANCHOR, N_TAPS, lagrange_taps
from .numerology import WaveformProfile


@dataclass(frozen=True)
class ChannelConfig:
    clock_offset_ppm: float = 0.0
    carrier_freq_offset: float = 0.0  # cycles per sample
    initial_phase: float = 0.0  # radians
    esn0_db: float | None = None  # None = noiseless
    seed: int = 0

    @classmethod
    def for_profile(cls, profile: WaveformProfile, **kw) -> "ChannelConfig":
        cfg = cls(**kw)
        if abs(cfg.clock_offset_ppm) > profile.max_clock_offset_ppm:
            warnings.warn(
                f"clock offset {cfg.clock_offset_ppm} ppm exceeds profile bound "
                f"{profile.max_clock_offset_ppm} ppm",
                stacklevel=2,
            )
        return cfg


def _resample_clock_offset(x: np.ndarray, ppm: float) -> np.ndarray:
    """Resample by (1 + ppm*1e-6); output length floor(n * factor)."""
    if ppm == 0.0:
        return x
    factor = 1.0 + ppm * 1e-6
    n_out = int(math.floor(x.size * factor))
    pos = np.arange(n_out) / factor
    base = np.floor(pos).astype(np.int64)
    mu = pos - base
    taps = lagrange_taps(mu)  # (n_out, 8)
    padded = np.concatenate(
        [np.zeros(ANCHOR, x.dtype), x, np.zeros(N_TAPS, x.dtype)]
    )
    idx = base[:, None] + np.arange(N_TAPS)[None, :]  # padded[base-3+t+3]
    return np.sum(padded[idx] * taps, axis=1).astype(np.complex64)


def apply(iq: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Impair a baseband buffer: resample, rotate, add noise."""
    x = np.asarray(iq, dtype=np.complex64)
    y = _resample_clock_offset(x, cfg.clock_offset_ppm)
    if cfg.carrier_freq_offset != 0.0 or cfg.initial_phase != 0.0:
        n = np.arange(y.size)
        y = y * np.exp(
            1j * (2.0 * np.pi * cfg.carrier_freq_offset * n + cfg.initial_phase)
        ).astype(np.complex64)
    if cfg.esn0_db is not None:
        rng = np.random.default_rng(cfg.seed)
        power = float(np.mean(y.real**2 + y.imag**2))
        es = power * float(WaveformProfile.samples_per_symbol)
        sigma2 = es / (10.0 ** (cfg.esn0_db / 10.0))
        noise = rng.normal(scale=math.sqrt(sigma2 / 2.0), size=(y.size, 2))
        y = y + (noise[:, 0] + 1j * noise[:, 1]).astype(np.complex64)
    return y.astype(np.complex64)
