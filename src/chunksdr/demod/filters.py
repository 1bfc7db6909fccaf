"""Rational resampling with integrated matched filtering.

The digitized stream at 8/5 samples/symbol is resampled 5 up / 4 down to
2 samples/symbol.  The 81-tap filter is a root-raised-cosine whose cutoff is
0.125 of the upsampled rate, so it is the matched filter as well: together
with the TX shaper it forms a raised cosine that is ISI-free at symbol
centers.
"""

from __future__ import annotations

import numpy as np

from ..errors import ChunkTooShort
from ..modem import RRC_TAPS, tx_rx_taps, upfirdn
from ..numerology import WaveformProfile

UP = 5
DOWN = 4
_EDGE = (RRC_TAPS - 1) // 2 // DOWN  # outputs consumed by the filter delay


def rx_taps(profile: WaveformProfile) -> np.ndarray:
    return tx_rx_taps(profile.rolloff)[1]


def resample_matched_filter(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Resample to 2 samples/symbol; output n sits at input time 4n/5.

    Output length is floor(len * 5/4); the first and last ~10 outputs use a
    zero-padded window (chunk overlap margin absorbs them).
    """
    samples = np.asarray(samples)
    if samples.size < RRC_TAPS:
        raise ChunkTooShort(f"{samples.size} samples, need at least {RRC_TAPS}")
    full = upfirdn(taps, samples, up=UP, down=DOWN)
    n_out = samples.size * UP // DOWN
    return full[_EDGE : _EDGE + n_out].astype(np.complex64)


def outputs_touched(spans, n_out: int) -> np.ndarray:
    """Mask of the resampler outputs whose filter support reaches into any
    of the input spans ((start, end) indices into the resampler's input).

    Output n reads the inputs s with |5s - 4n| <= 40: the 81 taps at the
    upsampled rate, centred by the filter delay.
    """
    reach = (RRC_TAPS - 1) // 2
    out = np.zeros(n_out, dtype=bool)
    for start, end in spans:
        lo = -((reach - UP * start) // DOWN)  # ceil((5 start - 40) / 4)
        hi = (UP * (end - 1) + reach) // DOWN + 1
        out[max(lo, 0) : max(min(hi, n_out), 0)] = True
    return out
