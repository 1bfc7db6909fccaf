"""Precomputed 8-tap Lagrange fractional-delay interpolators.

The bank holds 128 filters at delays spaced 1/128 of a sample; filter index
64 is the half-sample delay.  Interpolation at index i reproduces any
polynomial of degree <= 7 sampled on the 8-point window exactly at position
3 + i/128.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

N_FILTERS = 128
N_TAPS = 8
ANCHOR = 3  # interpolation point lies between window taps 3 and 4


def lagrange_taps(mu: np.ndarray | float) -> np.ndarray:
    """Lagrange coefficients for interpolating at position ANCHOR + mu.

    Accepts a scalar or an array of fractional delays; returns (..., 8).
    """
    mu = np.asarray(mu, dtype=np.float64)
    t = ANCHOR + mu
    out = np.ones(mu.shape + (N_TAPS,))
    for k in range(N_TAPS):
        for j in range(N_TAPS):
            if j != k:
                out[..., k] *= (t - j) / (k - j)
    return out


@lru_cache(maxsize=1)
def lagrange_bank() -> np.ndarray:
    """(128, 8) float64 bank; row i interpolates at delay i/128 past tap 3."""
    bank = lagrange_taps(np.arange(N_FILTERS) / N_FILTERS)
    return np.ascontiguousarray(bank)

