"""IQ sample formats.

``cf32``: interleaved 32-bit float I,Q, little-endian (``read_cf32``).
``sc8``: interleaved signed 8-bit I,Q, the packets' wire format, made by
``quantize_int8`` and read back by ``dequantize_int8``.  ``SC8`` is its
one-sample dtype, so an sc8 buffer indexes by sample.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ParseError

FULL_SCALE_INT8 = 127
SC8 = np.dtype([("i", "i1"), ("q", "i1")])
# float32 components per block of the quantizer and the clip counter: their
# scratch space is bounded by this, or by the input when it is shorter
_BLOCK_FLOATS = 16384


def write_cf32(path: str | Path, samples: np.ndarray) -> None:
    np.asarray(samples, dtype="<c8").tofile(path)


def read_cf32(path: str | Path) -> np.ndarray:
    """A whole cf32 file; a size that is not a whole number of 8-byte
    samples raises ParseError."""
    size = Path(path).stat().st_size
    if size % 8:
        raise ParseError(f"{path}: {size} bytes is not a whole number of 8-byte cf32 samples")
    return np.fromfile(path, dtype="<c8").astype(np.complex64, copy=False)


def quantize_int8(samples: np.ndarray, full_scale: float = 1.0) -> np.ndarray:
    """Symmetric clip at +-127 (-128 unused) so negation is exact.

    Each component is rounded half to even after a float32 multiply by
    float32(127 / full_scale), a block at a time through one scratch buffer.
    """
    flat = np.ascontiguousarray(samples, dtype=np.complex64).reshape(-1).view(np.float32)
    scale = np.float32(FULL_SCALE_INT8 / full_scale)
    out = np.empty(flat.size, dtype=np.int8)
    buf = np.empty(min(flat.size, _BLOCK_FLOATS), dtype=np.float32)
    for lo in range(0, flat.size, _BLOCK_FLOATS):
        seg = flat[lo : lo + _BLOCK_FLOATS]
        x = np.multiply(seg, scale, out=buf[: seg.size])
        np.rint(x, out=x)
        np.minimum(x, FULL_SCALE_INT8, out=x)
        np.maximum(x, -FULL_SCALE_INT8, out=x)
        out[lo : lo + seg.size] = x
    return out


def count_clipped(samples: np.ndarray, full_scale: float = 1.0) -> int:
    """Samples whose larger component magnitude exceeds full_scale, counted
    a block at a time so the temporaries stay small."""
    x = np.asarray(samples, dtype=np.complex64).reshape(-1)
    step = _BLOCK_FLOATS // 2
    clipped = 0
    for lo in range(0, x.size, step):
        block = x[lo : lo + step]
        clipped += np.count_nonzero(np.maximum(np.abs(block.real), np.abs(block.imag)) > full_scale)
    return int(clipped)


def dequantize_int8(
    raw: np.ndarray | bytes, full_scale: float = 1.0, out: np.ndarray | None = None
) -> np.ndarray:
    """Interleaved int8 I/Q (bytes, int8 codes or ``SC8`` samples) to
    complex64: float32(code) * float32(full_scale / 127) per component, in
    one ufunc pass with no temporaries, into ``out`` when it is given."""
    if isinstance(raw, bytes):
        data = np.frombuffer(raw, dtype=np.int8)
    elif isinstance(raw, np.ndarray) and raw.dtype == SC8:
        data = np.ascontiguousarray(raw).view(np.int8)
    else:
        data = np.asarray(raw, dtype=np.int8)
    scale = np.float32(full_scale / FULL_SCALE_INT8)
    if out is None:
        return np.multiply(data, scale, dtype=np.float32).view(np.complex64)
    np.multiply(data, scale, out=out.view(np.float32), dtype=np.float32)
    return out
