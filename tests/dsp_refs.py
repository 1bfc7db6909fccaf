"""Per-value forms of decisions the receiver makes in bulk, for the tests.

The phase loop takes each symbol's residual to the nearest 8PSK point with
`math.remainder` on angles, and the timing loop interpolates whole blocks
from the Lagrange bank; the slicer and the single-window interpolator here
state the same operations one value at a time.
"""

import numpy as np

from chunksdr.demod.interp import lagrange_bank
from chunksdr.modem import GRAY_LABELS

_POINTS = np.exp(1j * np.pi / 4 * np.arange(8)).astype(np.complex64)
_LABELS = np.array(GRAY_LABELS)
_BITS = np.array([[(g >> 2) & 1, (g >> 1) & 1, g & 1] for g in GRAY_LABELS], dtype=np.uint8)


def slice_8psk(x: complex) -> tuple[complex, tuple[int, int, int]]:
    """Nearest constellation point by angle, plus its 3 bits (MSB first).

    Angle ties break toward the smaller Gray label; zero input returns the
    label-0 point by convention.
    """
    if x == 0:
        pos = int(np.nonzero(_LABELS == 0)[0][0])
        return complex(_POINTS[pos]), tuple(_BITS[pos])
    scaled = np.angle(x) * 4.0 / np.pi
    lo = int(np.floor(scaled))
    frac = scaled - lo
    if abs(frac - 0.5) < 1e-9:  # boundary: pick the smaller label
        a, b = lo % 8, (lo + 1) % 8
        pos = a if _LABELS[a] < _LABELS[b] else b
    else:
        pos = int(np.floor(scaled + 0.5)) % 8
    return complex(_POINTS[pos]), tuple(int(b) for b in _BITS[pos])


def slice_positions(x: np.ndarray) -> np.ndarray:
    """Vectorized nearest-point circle positions (ties round half-even)."""
    scaled = np.angle(x) * 4.0 / np.pi
    return np.round(scaled).astype(np.int64) % 8


def lagrange_interp(window: np.ndarray, filter_index: int) -> complex:
    """Dot product of an 8-sample window with the selected bank filter."""
    return complex(np.dot(np.asarray(window), lagrange_bank()[int(filter_index)]))
