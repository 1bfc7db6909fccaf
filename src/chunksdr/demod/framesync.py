"""Coherent frame synchronization.

The tracked symbol stream is split into frame-length segments from symbol 0;
summing the segments adds the (identical-offset) preambles coherently while
payload symbols average out, so detection works below the SNR where a single
preamble is reliable.  The summed segment is circularly correlated against
the preamble in the FFT domain; the peak index is the common frame offset.
Symbols before the first offset and after the last complete frame are
discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NoPeak
from ..modem import Preamble

PEAK_RATIO_THRESHOLD = 10.0


@dataclass
class SyncResult:
    offset: int  # symbol index of the first preamble start
    frame_starts: np.ndarray  # symbol indices, one per complete frame
    payloads: np.ndarray  # (n_frames, payload_symbols) complex64
    peak_ratio: float
    rotation: float  # common residual rotation estimate, radians
    noise_var: float  # per-symbol noise variance estimate


def correlate_preamble(summed: np.ndarray, preamble: Preamble) -> np.ndarray:
    """Circular correlation of a frame-length segment with the preamble."""
    n = summed.size
    return np.fft.ifft(np.fft.fft(summed) * preamble.conj_fft(n))


def coherent_offset(
    symbols: np.ndarray,
    preamble: Preamble,
    frame_symbols: int,
) -> tuple[int, float]:
    """Offset of the preamble within the frame period, and the peak ratio."""
    n_frames = symbols.size // frame_symbols
    if n_frames < 1:
        raise NoPeak("fewer than one frame of symbols")
    segs = symbols[: n_frames * frame_symbols].reshape(n_frames, frame_symbols)
    summed = segs.sum(axis=0)
    corr = correlate_preamble(summed, preamble)
    power = np.abs(corr) ** 2
    offset = int(np.argmax(power))
    ratio = float(power[offset] / (np.mean(power) + 1e-30))
    return offset, ratio


def frame_sync(
    symbols: np.ndarray,
    preamble: Preamble,
    frame_symbols: int,
    erased: np.ndarray | None = None,
) -> SyncResult:
    """Locate and extract all complete frames in a tracked symbol stream.

    `erased` optionally marks symbols that carry no signal (a lost packet);
    preamble symbols among them are left out of the rotation and noise
    estimates.
    """
    symbols = np.ascontiguousarray(symbols, dtype=np.complex64)
    if symbols.size < 2 * frame_symbols:
        raise NoPeak(f"{symbols.size} symbols, need at least two frames")
    offset, ratio = coherent_offset(symbols, preamble, frame_symbols)
    if ratio < PEAK_RATIO_THRESHOLD:
        raise NoPeak(f"peak-to-mean power ratio {ratio:.1f} below {PEAK_RATIO_THRESHOLD}")

    n_pre = preamble.symbols.size
    n_frames = (symbols.size - offset) // frame_symbols
    if n_frames < 1:
        raise NoPeak("no complete frame after the detected offset")
    starts = offset + frame_symbols * np.arange(n_frames)
    frames = symbols[offset : offset + n_frames * frame_symbols].reshape(
        n_frames, frame_symbols
    )
    rx_pre = frames[:, :n_pre]
    payloads = frames[:, n_pre:]

    # Common rotation of the whole chunk (resolves the slicer's pi/4 lock
    # ambiguity) and a per-symbol noise variance estimate, both from the
    # known preamble symbols.
    known = np.tile(preamble.symbols, n_frames)
    rx_known = rx_pre.reshape(-1)
    if erased is not None:
        span = erased[offset : offset + n_frames * frame_symbols]
        keep = ~span.reshape(n_frames, frame_symbols)[:, :n_pre].reshape(-1)
        if keep.any():
            known, rx_known = known[keep], rx_known[keep]
    ref = np.vdot(known, rx_known)
    rotation = float(np.angle(ref))
    derot = rx_known * np.exp(-1j * rotation)
    noise_var = float(np.mean(np.abs(derot - known) ** 2))
    return SyncResult(
        offset=offset,
        frame_starts=starts,
        payloads=payloads,
        peak_ratio=ratio,
        rotation=rotation,
        noise_var=noise_var,
    )
