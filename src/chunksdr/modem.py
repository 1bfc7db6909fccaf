"""Transmit side: framing, 8PSK mapping, and RRC pulse shaping.

The waveform is a continuous sequence of fixed-length frames, each a fixed
preamble followed by one FEC codeword, put in the codeword order, interleaved
and mapped to 8PSK.  The pulse shaper is a polyphase interpolator to the
rational input oversampling (8/5 for 1.6 samples/symbol) whose taps mirror
the receiver's matched filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LengthMismatch, LengthNotDivisible
from .numerology import CODEWORD_ORDER_MULTIPLIER, WaveformProfile

RRC_TAPS = 81
INTERNAL_SPS = 8  # taps are designed at 8 samples/symbol; TX runs 8 up / 5 down

# Gray labels around the circle: adjacent constellation points differ in one bit.
GRAY_LABELS = tuple(k ^ (k >> 1) for k in range(8))


class Constellation8PSK:
    """Unit-magnitude 8PSK with Gray labeling, 3 bits per point."""

    def __init__(self) -> None:
        k = np.arange(8)
        self.points = np.exp(1j * np.pi / 4 * k).astype(np.complex64)
        self.labels = np.array(GRAY_LABELS)
        # position on the circle for each 3-bit label
        self.position_of_label = np.zeros(8, dtype=np.int64)
        self.position_of_label[self.labels] = k
        # bits (b2, b1, b0) of the point at each circle position
        self.bits_of_position = np.array(
            [[(lab >> 2) & 1, (lab >> 1) & 1, lab & 1] for lab in GRAY_LABELS]
        )

    def map_bits(self, bits: np.ndarray) -> np.ndarray:
        """Map bits (length divisible by 3, MSB first per symbol) to points."""
        bits = np.asarray(bits, dtype=np.int64).reshape(-1, 3)
        labels = (bits[:, 0] << 2) | (bits[:, 1] << 1) | bits[:, 2]
        return self.points[self.position_of_label[labels]]


@dataclass(frozen=True)
class Preamble:
    """Fixed per-profile sync word, constant across all frames."""

    symbols: np.ndarray  # complex64, unit magnitude
    seed: int

    @classmethod
    def for_profile(cls, profile: WaveformProfile) -> "Preamble":
        return _preamble_cached(profile.preamble_symbols, profile.preamble_seed)

    def conj_fft(self, n: int) -> np.ndarray:
        """Conjugate FFT of the zero-padded preamble (for circular correlation)."""
        return _preamble_conj_fft(self.symbols.tobytes(), len(self.symbols), n)


@lru_cache(maxsize=8)
def _preamble_cached(n_symbols: int, seed: int) -> Preamble:
    # QPSK-valued pseudo-random sequence: flat correlation sidelobes, and its
    # points sit on the 8PSK grid so preamble symbols slice like payload.
    quad = _preamble_quadrants(n_symbols, seed)
    symbols = np.exp(1j * (np.pi / 4 + np.pi / 2 * quad)).astype(np.complex64)
    return Preamble(symbols=symbols, seed=seed)


def _preamble_quadrants(n_symbols: int, seed: int) -> np.ndarray:
    """``default_rng(seed).integers(0, 4, size=n_symbols)``, read from the
    shipped table when it covers the seed and length, so building a receiver
    for a shipped profile imports no numpy.random."""
    quads = _preamble_table().get(seed, "")
    if n_symbols <= len(quads):
        return np.fromiter(map(int, quads[:n_symbols]), np.int64, count=n_symbols)
    return np.random.default_rng(seed).integers(0, 4, size=n_symbols)


@lru_cache(maxsize=1)
def _preamble_table() -> dict[int, str]:
    """Seed -> quadrant digits, from data/preambles.table (tools/gen_preamble.py)."""
    text = resources.files("chunksdr.data").joinpath("preambles.table").read_text()
    rows = (line.split() for line in text.splitlines() if line and not line.startswith("#"))
    return {int(seed): quads for seed, quads in rows}


@lru_cache(maxsize=16)
def _preamble_conj_fft(raw: bytes, n_symbols: int, n: int) -> np.ndarray:
    symbols = np.frombuffer(raw, dtype=np.complex64)
    padded = np.zeros(n, dtype=np.complex64)
    padded[:n_symbols] = symbols
    return np.conj(np.fft.fft(padded))


def interleave(bits: np.ndarray, columns: int = 3) -> np.ndarray:
    """Column-write/row-read block permutation."""
    bits = np.asarray(bits)
    if bits.size % columns != 0:
        raise LengthNotDivisible(f"{bits.size} bits not divisible by {columns} columns")
    return bits.reshape(columns, -1).T.ravel()


def deinterleave(values: np.ndarray, columns: int = 3) -> np.ndarray:
    """Inverse of :func:`interleave`; works on bits or soft values."""
    values = np.asarray(values)
    if values.size % columns != 0:
        raise LengthNotDivisible(f"{values.size} values not divisible by {columns} columns")
    return values.reshape(-1, columns).T.ravel()


@lru_cache(maxsize=8)
def codeword_order(n: int) -> np.ndarray:
    """The codeword bit each of n transmit positions carries: position p
    carries bit a * p mod n, a = ``CODEWORD_ORDER_MULTIPLIER``.

    A lost packet erases a contiguous run of symbols, so after `interleave`
    alone a run of bits in each column, mostly along the code's accumulator
    chain, which min-sum clears about one bit per iteration from each end.
    In this order the run lands on bits spread over the whole word, which
    the checks determine in a few iterations.  It is a permutation because
    n, a profile's payload bits, is coprime with a (`WaveformProfile.validate`).
    """
    order = np.arange(n, dtype=np.intp) * CODEWORD_ORDER_MULTIPLIER % n
    order.flags.writeable = False
    return order


def order_codeword(bits: np.ndarray) -> np.ndarray:
    """A codeword in transmit order: position p holds bit ``codeword_order(n)[p]``."""
    bits = np.asarray(bits)
    return bits[codeword_order(bits.size)]


def unorder_codeword(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`order_codeword`; works on bits or soft values."""
    values = np.asarray(values)
    out = np.empty_like(values)
    out[codeword_order(values.size)] = values
    return out


def build_frame(payload_bits: np.ndarray, profile: WaveformProfile, codec) -> np.ndarray:
    """One frame of symbols: the preamble, then the codeword put in the
    codeword order (:func:`order_codeword`), interleaved across the bit
    positions of its symbols, and mapped to 8PSK."""
    payload_bits = np.asarray(payload_bits, dtype=np.uint8)
    if payload_bits.size != codec.k:
        raise LengthMismatch(
            f"payload of {payload_bits.size} bits, codec expects {codec.k}"
        )
    codeword = codec.encode(payload_bits)
    if codeword.size != profile.payload_bits:
        raise LengthMismatch(
            f"codeword of {codeword.size} bits does not fill "
            f"{profile.payload_bits} payload bits"
        )
    mapped = Constellation8PSK().map_bits(
        interleave(order_codeword(codeword), profile.bits_per_symbol)
    )
    preamble = Preamble.for_profile(profile)
    return np.concatenate([preamble.symbols, mapped]).astype(np.complex64)


# -- pulse shaping -------------------------------------------------------------


def upfirdn(h: np.ndarray, x: np.ndarray, up: int = 1, down: int = 1) -> np.ndarray:
    """Upsample 1-D `x` by `up`, filter with FIR `h`, keep every `down`-th output.

    Same output as ``scipy.signal.upfirdn``, computed in double precision:
    output n is sum_k h[k] * xu[n*down - k] with xu the zero-stuffed input,
    over ceil(((len(x) - 1)*up + len(h)) / down) outputs (the full
    convolution).  Polyphase form: output n uses the taps h[p::up],
    p = n*down % up, against the inputs ending at (n*down) // up; both repeat
    with period up / gcd(up, down) in n, so each residue class of n is one
    strided matvec.
    """
    h = np.asarray(h)
    x = np.asarray(x)
    if h.ndim != 1 or x.ndim != 1 or h.size == 0 or x.size == 0 or up < 1 or down < 1:
        raise ValueError("upfirdn needs non-empty 1-D h and x, and up, down >= 1")
    dtype = np.result_type(h, x, np.float64)
    per_phase = -(-h.size // up)
    phases = np.zeros(per_phase * up, dtype)
    phases[: h.size] = h
    # row p holds h[p::up] reversed, to dot against an input window in order
    phases = np.ascontiguousarray(phases.reshape(per_phase, up).T[:, ::-1])
    n_out = ((x.size - 1) * up + h.size - 1) // down + 1
    padded = np.zeros(x.size + 2 * (per_phase - 1), dtype)
    padded[per_phase - 1 : per_phase - 1 + x.size] = x
    windows = sliding_window_view(padded, per_phase)  # row i ends at x[i]
    period = up // gcd(up, down)
    step = down // gcd(up, down)
    out = np.empty(n_out, dtype)
    for s in range(min(period, n_out)):
        count = len(range(s, n_out, period))
        first = s * down // up
        out[s::period] = windows[first : first + step * count : step] @ phases[s * down % up]
    return out


def rrc_taps(n_taps: int = RRC_TAPS, sps: int = INTERNAL_SPS, rolloff: float = 0.25) -> np.ndarray:
    """Root-raised-cosine impulse response, unnormalized, symmetric."""
    beta = rolloff
    t = (np.arange(n_taps) - (n_taps - 1) / 2) / sps  # in symbol periods
    taps = np.empty(n_taps)
    # generic closed form with the two removable singularities patched
    tiny = 1e-9
    at_zero = np.abs(t) < tiny
    at_knee = np.abs(np.abs(t) - 1.0 / (4 * beta)) < tiny
    regular = ~(at_zero | at_knee)
    tr = t[regular]
    num = np.sin(np.pi * tr * (1 - beta)) + 4 * beta * tr * np.cos(np.pi * tr * (1 + beta))
    den = np.pi * tr * (1 - (4 * beta * tr) ** 2)
    taps[regular] = num / den
    taps[at_zero] = 1 - beta + 4 * beta / np.pi
    taps[at_knee] = (beta / np.sqrt(2)) * (
        (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
        + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta))
    )
    return taps


@lru_cache(maxsize=8)
def tx_rx_taps(rolloff: float) -> tuple[np.ndarray, np.ndarray]:
    """Matched TX/RX tap pair for the 8/5-up TX and 5/4-up RX resamplers.

    TX taps are the RRC scaled for unit average output power on unit symbols.
    RX taps start from the same RRC (unit DC) and get a small least-squares
    correction that forces the truncated cascade back onto the Nyquist grid:
    unit gain at symbol centers, zero at symbol-spaced offsets, unit DC per
    polyphase branch.  Without it, 81-tap truncation leaves ~1% aggregate ISI.
    """
    raw = rrc_taps(rolloff=rolloff)
    tx = raw * np.sqrt(INTERNAL_SPS / np.sum(raw**2))
    rx0 = raw * (5.0 / raw.sum())

    halfspan = 16  # cascade spans ~10 symbols; constrain every center it touches
    n_sym = 80
    span = 2 * halfspan + 1
    n_isi = 5 * span
    # Column j holds the symbol-center response of the TX cascade followed by
    # the RX filter probe[j] = 1 (5/4 up/down), for a unit symbol at each of
    # the five polyphase offsets p.  RX output 10 + 2q (symbol center q) is
    # then the zero-stuffed TX output at k = 4 * (10 + 2q) - j: up[k / 5] when
    # 5 divides k and k / 5 lies inside `up`, else 0.
    taps = np.arange(RRC_TAPS)
    a = np.zeros((n_isi + 5, RRC_TAPS))
    for p in range(5):
        syms = np.zeros(n_sym)
        syms[40 + p] = 1.0
        up = upfirdn(tx, syms, up=INTERNAL_SPS, down=5)[8 : 8 + n_sym * INTERNAL_SPS // 5]
        q = np.arange(40 + p - halfspan, 40 + p + halfspan + 1)
        k = 4 * (10 + 2 * q)[:, None] - taps[None, :]
        hit = (k % 5 == 0) & (k >= 0) & (k < 5 * up.size)
        a[p * span : (p + 1) * span][hit] = up[k[hit] // 5]
    a[n_isi + taps % 5, taps] = 1.0  # DC per polyphase branch
    target = np.zeros(n_isi + 5)
    weight = np.ones(n_isi + 5)
    target[n_isi:] = 1.0
    weight[n_isi:] = 4.0
    for p in range(5):
        target[p * span + halfspan] = 1.0
        weight[p * span + halfspan] = 4.0
    lam = 1e-5
    aw = a * weight[:, None]
    rx = np.linalg.solve(a.T @ aw + lam * np.eye(RRC_TAPS), aw.T @ target + lam * rx0)
    return tx, rx


def pulse_shape(symbols: np.ndarray, profile: WaveformProfile) -> np.ndarray:
    """Shape a whole symbol stream to 8/5 samples/symbol (length must divide
    by 5).

    Output sample 0 is symbol 0's center, and the output ends with the last
    symbol's samples, the symbols after it taken as zero.
    """
    symbols = np.asarray(symbols, dtype=np.complex64)
    if symbols.size % 5:
        raise LengthNotDivisible(f"symbol count {symbols.size} not divisible by 5")
    n_out = symbols.size * INTERNAL_SPS // 5
    if n_out == 0:
        return np.zeros(0, dtype=np.complex64)
    taps, _ = tx_rx_taps(profile.rolloff)
    delay = (RRC_TAPS - 1) // 2 // 5  # the filter's group delay, in output samples
    out = upfirdn(taps, symbols, up=INTERNAL_SPS, down=5)[delay : delay + n_out]
    return out.astype(np.complex64)


@dataclass
class TxStream:
    """Ground truth for a generated stream."""

    samples: np.ndarray  # complex64 at profile.samples_per_symbol
    symbols: np.ndarray  # complex64 at 1/symbol
    info_bits: np.ndarray  # (n_frames, codec.k) uint8
    profile: WaveformProfile


def generate_stream(
    profile: WaveformProfile,
    codec,
    n_frames: int,
    seed: int = 0,
) -> TxStream:
    """Synthesize a continuous framed waveform with random payloads."""
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, size=(n_frames, codec.k), dtype=np.uint8)
    frames = [build_frame(info[i], profile, codec) for i in range(n_frames)]
    symbols = np.concatenate(frames)
    return TxStream(
        samples=pulse_shape(symbols, profile),
        symbols=symbols,
        info_bits=info,
        profile=profile,
    )
