"""Blind symbol tracking with a polyphase Lagrange resampler.

The loop consumes matched-filtered samples at 2/symbol and emits one symbol
per two inputs (plus or minus clock-slip corrections).  The NCO holds a
fractional delay quantized to the 128-filter bank; a sample is repeated when
the filter index wraps below 0 and skipped when it wraps past 128.  The loop
updates once per 64 interpolated outputs; each update reads 64 + 8 inputs
(the 8-tap window flush).

Two-pass operation: the loop first runs backward over the chunk head (on the
time-reversed samples) until it converges at sample 0, then the whole chunk
is processed forward from the converged state, so no output symbols are
sacrificed to the acquisition transient.

Inside the loop each block is interpolated with one float64 matvec over the
interleaved real/imaginary input, into a buffer whose fixed views feed the
power and `gardner_ted`; the loop body otherwise runs on Python scalars.
The emitted symbols are the on-time half of those interpolants, kept per
block as the loop computes them, and their positions follow from each
block's start q + tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import WarmupExceedsChunk
from .interp import N_FILTERS, lagrange_bank

BLOCK_OUT = 64  # interpolated samples per loop update
FLUSH = 8  # extra inputs read per update (window memory)
_WIN_LEFT = 3  # window reaches 3 samples left, 4 right of the base index

# Gardner detector slope for the power-normalized error on random 8PSK
# (measured; error per sample of timing offset).
DETECTOR_GAIN = 0.39


def loop_gains(loop_bw_per_update: float, detector_gain: float, damping: float = 0.707):
    """Proportional/integrator gains of a second-order PI loop."""
    theta = loop_bw_per_update / (damping + 1.0 / (4.0 * damping))
    denom = 1.0 + 2.0 * damping * theta + theta * theta
    kp = 4.0 * damping * theta / (denom * detector_gain)
    ki = 4.0 * theta * theta / (denom * detector_gain)
    return kp, ki


def timing_gains(loop_bw_per_symbol: float) -> tuple[float, float]:
    return loop_gains(loop_bw_per_symbol * (BLOCK_OUT // 2), DETECTOR_GAIN)


def gardner_ted(early, ontime, late) -> float:
    """Timing error from the half-early, on-time, and half-late interpolants.

    Inputs are the interpolated values over a block of symbol periods (arrays
    of equal length, or scalars); the error is the sum over the block of
    ontime * (late - early), real and imaginary parts separately.  Sign
    convention: sampling late yields a negative error.
    """
    # vdot conjugates its first argument: Re(conj(late - early) * ontime)
    return float(np.vdot(np.subtract(late, early), ontime).real)


# Widest clock offset the rate accumulator may represent (samples/sample).
# 20x the nominal 10 ppm bound; keeps integrator windup from a start at the
# unstable (half-symbol) equilibrium from running away before lock.
RATE_LIMIT = 2e-4


@dataclass
class TrackedSymbols:
    """Tracker output: symbols plus their positions in the 2/sps input."""

    symbols: np.ndarray  # complex64
    positions: np.ndarray  # float64, fractional index into the tracker input
    rate: float  # final loop drift estimate, samples per output sample
    consumed_samples: int  # inputs covered by the forward pass
    skips: int
    repeats: int
    held: np.ndarray | None = None  # symbols whose window reads a held input; None: no hold


class _PassResult:
    __slots__ = ("q", "tau", "rate", "skips", "repeats", "q_start")

    def __init__(self, q, tau, rate, skips, repeats, q_start):
        self.q = q
        self.tau = tau
        self.rate = rate
        self.skips = skips
        self.repeats = repeats
        self.q_start = q_start


_ROW = 2 * FLUSH - 1  # floats spanned by one 8-tap window in interleaved form


def _interleaved_bank() -> np.ndarray:
    """(128, 15) bank with a zero between taps.

    Against a float64 view of complex input, the 15-float window starting at
    float index 2n (2n + 1) then yields the real (imaginary) part of the
    interpolant at complex index n.
    """
    out = np.zeros((N_FILTERS, _ROW))
    out[:, 0::2] = lagrange_bank()
    return out


def _run_pass(
    x: np.ndarray,
    q0: int,
    tau0: float,
    rate0: float,
    kp: float,
    ki: float,
    collect: bool,
    freeze: np.ndarray,
):
    """One directional pass; x is already oriented in processing order.

    A block starting at input index q where the boolean mask `freeze` (one
    entry per input) is set is interpolated and emitted but does not update
    the loop: the chunk head's filter-edge samples, or the edges of an
    erased span, would poison the converged state.
    """
    wide = x.astype(np.complex128)
    rows = sliding_window_view(wide.view(np.float64), _ROW)
    bank = _interleaved_bank()
    n_rows = x.size - FLUSH + 1
    # [previous block's last mid | this block's 64 interpolants], complex
    buf = np.zeros(BLOCK_OUT + 1, np.complex128)
    y = buf[1:].view(np.float64)
    early, ontime, late = buf[0:-1:2], buf[1::2], buf[2::2]
    q, tau, rate = q0, float(tau0), float(rate0)
    skips = repeats = 0
    # per block: its on-time interpolants and its start q + tau; the loop
    # allocates nothing the cyclic garbage collector tracks
    ontimes: list[np.ndarray] = []
    starts: list[float] = []
    frozen = freeze.tobytes()  # one byte per index, read once per block

    while q >= _WIN_LEFT and q - _WIN_LEFT + BLOCK_OUT <= n_rows:
        fi = int(tau * N_FILTERS + 0.5)
        if fi >= N_FILTERS:
            fi = N_FILTERS - 1
        start = 2 * (q - _WIN_LEFT)
        np.dot(rows[start : start + 2 * BLOCK_OUT], bank[fi], out=y)
        if collect:
            ontimes.append(ontime.astype(np.complex64))
            starts.append(q + tau)
        if not frozen[q]:
            power = float(np.dot(y, y)) / BLOCK_OUT + 1e-30
            err = gardner_ted(early, ontime, late) / ((BLOCK_OUT // 2) * power)
            rate += ki * err
            if rate > RATE_LIMIT:
                rate = RATE_LIMIT
            elif rate < -RATE_LIMIT:
                rate = -RATE_LIMIT
            tau += BLOCK_OUT * rate + kp * err
        else:
            tau += BLOCK_OUT * rate
        buf[0] = buf[BLOCK_OUT]
        q += BLOCK_OUT
        while tau >= 1.0:
            tau -= 1.0
            q += 1
            skips += 1
        while tau < 0.0:
            tau += 1.0
            q -= 1
            repeats += 1

    result = _PassResult(q, tau, rate, skips, repeats, q0)
    if not collect:
        return result, None, None
    del rows, wide  # the widened input is done with; free it before the outputs
    symbols = np.concatenate(ontimes) if ontimes else np.zeros(0, np.complex64)
    positions = np.array(starts)[:, None] + 2.0 * np.arange(BLOCK_OUT // 2)
    return result, symbols, positions.ravel()


def touching(held: np.ndarray, before: int, after: int) -> np.ndarray:
    """Mask of the indices q whose span [q - before, q + after) holds a set
    entry of `held`."""
    c = np.concatenate([[0], np.cumsum(held, dtype=np.int64)])
    q = np.arange(held.size)
    return c[np.minimum(q + after, held.size)] > c[np.maximum(q - before, 0)]


# inputs a block starting at q reads: [q - 3, q + BLOCK_OUT + FLUSH - 4)
_READ_BEFORE, _READ_AFTER = _WIN_LEFT, BLOCK_OUT + FLUSH - _WIN_LEFT - 1


def track_symbols_two_pass(
    samples: np.ndarray,
    loop_bw: float,
    warmup: int,
    head_guard: int = 0,
    hold: np.ndarray | None = None,
    filter_index: float = 0.0,
) -> TrackedSymbols:
    """Backward warmup pass, then a forward pass over the whole input.

    `loop_bw` is the loop bandwidth per symbol, which sets the loop gains;
    `filter_index` is the starting fractional delay in bank filters [0, 128)
    with the rate at zero.  `warmup` is the number of leading samples (at
    2/symbol) the backward pass converges over; 0 runs single-pass from the
    starting delay.  The backward pass runs the forward kernel on the
    time-reversed head; handing the state over flips the sign of the
    second-order (rate) accumulator and mirrors the fractional delay while
    the proportional path is untouched.
    `head_guard` excludes that many leading samples (chunk-edge junk) from
    the backward pass and freezes loop updates over them going forward.
    `hold` optionally marks input samples the loop must not learn from (an
    erased span and its filter tails); blocks reading any of them coast on
    the loop's rate in both passes, and the symbols interpolated from any
    of them are marked in the result's `held`.
    """
    x = np.ascontiguousarray(samples)
    if warmup > x.size:
        raise WarmupExceedsChunk(f"warmup {warmup} exceeds {x.size} samples")

    kp, ki = timing_gains(loop_bw)
    tau0 = (filter_index % N_FILTERS) / N_FILTERS
    rate0 = 0.0
    q0 = _WIN_LEFT
    if warmup:
        if warmup <= head_guard + 2 * BLOCK_OUT:
            raise WarmupExceedsChunk(
                f"warmup {warmup} leaves no samples past the {head_guard} head guard"
            )
        xr = x[head_guard:warmup][::-1]
        freeze = np.zeros(xr.size, bool)
        if hold is not None:
            freeze = touching(hold[head_guard:warmup][::-1], _READ_BEFORE, _READ_AFTER)
        back, _, _ = _run_pass(xr, _WIN_LEFT, tau0, rate0, kp, ki, False, freeze)
        # next-output position in reversed coords -> forward coords
        p_rev = back.q + back.tau
        cf = (warmup - 1) - p_rev
        cf += 2.0 * np.ceil((_WIN_LEFT - cf) / 2.0)  # earliest on-grid center >= 3
        q0 = int(np.floor(cf))
        tau0 = cf - q0
        rate0 = -back.rate

    freeze = np.zeros(x.size, bool)
    if hold is not None:
        freeze = touching(hold, _READ_BEFORE, _READ_AFTER)
    freeze[:head_guard] = True
    fwd, symbols, positions = _run_pass(x, q0, tau0, rate0, kp, ki, True, freeze)
    held = None
    if hold is not None:
        # a symbol at position p interpolates inputs [floor(p) - 3, floor(p) + 5)
        base = np.floor(positions).astype(np.int64)
        held = touching(hold, _WIN_LEFT, FLUSH - _WIN_LEFT)[base]
    return TrackedSymbols(
        symbols=symbols,
        positions=positions,
        rate=fwd.rate,
        consumed_samples=fwd.q - fwd.q_start,
        skips=fwd.skips,
        repeats=fwd.repeats,
        held=held,
    )
