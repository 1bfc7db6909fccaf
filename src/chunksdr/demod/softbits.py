"""Symbol-to-soft-decision mapping.

Each 8PSK payload symbol maps to three max-log LLRs which are then
deinterleaved (the inverse of the transmit block interleaver) and taken out
of the transmit codeword order.  Sign convention: positive LLR means bit 0
is more likely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import LengthMismatch
from ..modem import Constellation8PSK, deinterleave, unorder_codeword

_CONST = Constellation8PSK()
_POINTS = _CONST.points
_BITS = _CONST.bits_of_position  # (8, 3)

LLR_CLIP = 120.0
NOISE_VAR_FLOOR = 1e-4


@dataclass
class SoftFrame:
    """One frame's soft decisions, keyed by its transmit-time boundary."""

    start_sample_number: int
    llrs: np.ndarray  # float32, payload_symbols * 3, in codeword order
    erased: np.ndarray | None = None  # bool per LLR, in codeword order; None: no erasure


def llr_map(symbols: np.ndarray, noise_var: float) -> np.ndarray:
    """Max-log LLRs, symbol-major (3 per symbol, MSB first), not deinterleaved."""
    x = np.asarray(symbols, dtype=np.complex64)
    sigma2 = max(float(noise_var), NOISE_VAR_FLOOR)
    d2 = np.abs(x[:, None] - _POINTS[None, :]) ** 2  # (n, 8)
    llrs = np.empty((x.size, 3), dtype=np.float32)
    for b in range(3):
        ones = _BITS[:, b] == 1
        min1 = d2[:, ones].min(axis=1)
        min0 = d2[:, ~ones].min(axis=1)
        llrs[:, b] = (min1 - min0) / sigma2
    return np.clip(llrs, -LLR_CLIP, LLR_CLIP)


def llr_map_deinterleave(
    payload_symbols: np.ndarray,
    noise_var: float,
    start_sample_number: int = 0,
    expected_symbols: int | None = None,
    erased: np.ndarray | None = None,
) -> SoftFrame:
    """LLRs for one frame's payload, in codeword order: deinterleaved, then
    taken out of the transmit order (`modem.unorder_codeword`).

    Symbols marked in the optional `erased` mask carry no information: their
    LLRs are 0, and the frame keeps the erased LLR positions in codeword
    order for the decoder.  The transmit order scatters a run of erased
    symbols over the whole codeword.
    """
    payload_symbols = np.asarray(payload_symbols)
    if expected_symbols is not None and payload_symbols.size != expected_symbols:
        raise LengthMismatch(
            f"{payload_symbols.size} payload symbols, expected {expected_symbols}"
        )
    llrs = llr_map(payload_symbols, noise_var)
    columns = llrs.shape[1]
    erased_bits = None
    if erased is not None and erased.any():
        llrs[erased] = 0.0
        erased_bits = unorder_codeword(deinterleave(np.repeat(erased, columns), columns))
    return SoftFrame(
        start_sample_number=start_sample_number,
        llrs=unorder_codeword(deinterleave(llrs.reshape(-1), columns)),
        erased=erased_bits,
    )
