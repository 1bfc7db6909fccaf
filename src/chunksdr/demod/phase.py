"""Decision-directed carrier phase/frequency tracking.

The loop updates once every 8 symbols.  Within a block the correction phase
is the ramp theta_k = theta + k*phi (phi = frequency estimate, radians per
symbol); the error is Im(x * conj(xhat)) with xhat the sliced 8PSK point,
averaged over the block and power-normalized.  Two-pass operation mirrors
the symbol tracker: backward warmup on the reversed head, then a full
forward pass from the converged state (frequency sign flips at handoff).

The decision inputs do not depend on loop state: `angle(x)` and `|x|` are
computed for the whole pass up front, and since |xhat| = 1 the power
normalizer is each block's mean |x|^2.  The loop body is then scalar
arithmetic over the block's 8 angle residuals; it records each block's
(theta, phi), and the derotation runs once over all blocks after the loop,
a tail shorter than a block on the final state's ramp.
"""

from __future__ import annotations

import math

import numpy as np

from .timing import loop_gains, touching

PHASE_BLOCK = 8

# Widest carrier offset the frequency accumulator may represent (rad/symbol);
# offsets are assumed small, and the cap keeps integrator windup bounded
# while the loop is still hunting for a lock point.
FREQ_LIMIT = 0.05


def _wrap(theta: float) -> float:
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


_RAMP = np.arange(1, PHASE_BLOCK + 1, dtype=np.float64)
_SECTOR = math.pi / 4  # angular spacing of the 8PSK points


def _run_pass(
    x: np.ndarray,
    theta: float,
    freq: float,
    kp: float,
    ki: float,
    collect: bool,
    freeze: np.ndarray,
):
    """One directional pass; x is already oriented in processing order.

    A block starting at symbol index i where the boolean mask `freeze` (one
    entry per symbol) is set is derotated on the running ramp but does not
    update the loop.
    """
    n_blocks = x.size // PHASE_BLOCK
    frozen = freeze.tobytes()  # one byte per index, read once per block
    blocks = x[: n_blocks * PHASE_BLOCK].reshape(n_blocks, PHASE_BLOCK)
    wide = blocks.astype(np.complex128)
    power = np.mean(wide.real**2 + wide.imag**2, axis=1) + 1e-30
    # e = mean(|x| sin r) / power, with r the residual angle to the slice.
    # Flat lists: a list per block would wake the cyclic garbage collector.
    weights = (np.abs(wide) / (PHASE_BLOCK * power[:, None])).ravel().tolist()
    angles = np.angle(wide).ravel().tolist()
    ramp = _RAMP.tolist()
    sin, remainder = math.sin, math.remainder  # local names for the inner loop
    thetas = []
    freqs = []
    for b in range(n_blocks):
        if collect:
            thetas.append(theta)
            freqs.append(freq)
        if frozen[b * PHASE_BLOCK]:
            theta = _wrap(theta + freq * PHASE_BLOCK)
            continue
        # remainder() leaves the residual to the nearest point, ties to even
        e = 0.0
        i = b * PHASE_BLOCK
        for a, w, k in zip(angles[i : i + PHASE_BLOCK], weights[i : i + PHASE_BLOCK], ramp):
            e += w * sin(remainder(a - (theta + freq * k), _SECTOR))
        theta = _wrap(theta + freq * PHASE_BLOCK + kp * e)
        freq += ki * e
        if freq > FREQ_LIMIT:
            freq = FREQ_LIMIT
        elif freq < -FREQ_LIMIT:
            freq = -FREQ_LIMIT
    if not collect:
        return theta, freq, None
    # the final state's ramp derotates a tail shorter than a block, no update
    thetas.append(theta)
    freqs.append(freq)
    phases = (np.asarray(thetas)[:, None] + np.asarray(freqs)[:, None] * _RAMP).ravel()
    out = (x * np.exp(-1j * phases[: x.size])).astype(np.complex64)
    return theta, freq, out


def track_phase_two_pass(
    symbols: np.ndarray,
    loop_bw: float,
    warmup_symbols: int,
    head_guard: int = 0,
    hold: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float]:
    """Derotate a symbol stream; backward warmup then full forward pass.

    `loop_bw` is the loop bandwidth per symbol, which sets the loop gains;
    the loop starts at zero phase and frequency.  Returns the derotated
    symbols and the loop's final `theta` (radians) and `freq` (radians per
    symbol).

    `head_guard` symbols at the front are excluded from the backward pass and
    derotated with frozen loop state on the forward pass (chunk-edge junk).
    `hold` optionally marks symbols the loop must not learn from (erased
    ones); blocks holding any of them coast on the loop's frequency in both
    passes.
    """
    x = np.ascontiguousarray(symbols, dtype=np.complex64)
    warmup = min(warmup_symbols, x.size)
    kp, ki = loop_gains(loop_bw * PHASE_BLOCK, detector_gain=1.0)
    theta = freq = 0.0
    if warmup > head_guard + 2 * PHASE_BLOCK:
        freeze = np.zeros(warmup - head_guard, bool)
        if hold is not None:
            freeze = touching(hold[head_guard:warmup][::-1], 0, PHASE_BLOCK)
        theta, freq, _ = _run_pass(
            x[head_guard:warmup][::-1], theta, -freq, kp, ki, False, freeze
        )
        freq = -freq  # second-order term flips with processing direction
        # theta converged at the guard boundary; rewind the ramp to symbol 0
        theta = _wrap(theta - freq * head_guard)
    freeze = np.zeros(x.size, bool)
    if hold is not None:
        freeze = touching(hold, 0, PHASE_BLOCK)
    freeze[:head_guard] = True
    theta, freq, out = _run_pass(x, theta, freq, kp, ki, True, freeze)
    return out, theta, freq
