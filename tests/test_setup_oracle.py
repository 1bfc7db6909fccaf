"""Receiver set-up and sample I/O against their first-written reference bodies.

The `_ref_*` functions below are the tap design, the pulse shaper, the int8
quantizer and dequantizer and the LDPC encoder as first written: the tap
design probes each RX tap with two `upfirdn` calls per polyphase offset, the
pulse shaper is a streaming interpolator that keeps symbol history and holds
back one 5-symbol cycle until flushed, the quantizer works on complex
temporaries, and the encoder is built from the dense parity-check matrix
when the codec is made.  The shipped versions index the TX cascades, shape
a stream in one `upfirdn` call, quantize through a bounded float32 buffer,
dequantize in one cast-and-multiply ufunc, and build the encoder on first
use; every output must be identical to the bit.
"""

import dataclasses

import numpy as np
import pytest

from chunksdr import iqfile
from chunksdr.distributor import packetize
from chunksdr.errors import LengthNotDivisible
from chunksdr.fec import get_codec
from chunksdr.modem import (
    INTERNAL_SPS,
    RRC_TAPS,
    pulse_shape,
    rrc_taps,
    tx_rx_taps,
    upfirdn,
)

FULL_SCALE_INT8 = 127


def _ref_tx_rx_taps(rolloff):
    raw = rrc_taps(rolloff=rolloff)
    tx = raw * np.sqrt(INTERNAL_SPS / np.sum(raw**2))
    rx0 = raw * (5.0 / raw.sum())

    halfspan = 16
    n_sym = 80

    def cascade_centers(rx, phase):
        syms = np.zeros(n_sym)
        syms[40 + phase] = 1.0
        up = upfirdn(tx, syms, up=INTERNAL_SPS, down=5)[8 : 8 + n_sym * INTERNAL_SPS // 5]
        y = upfirdn(rx, up, up=5, down=4)[10 : 10 + n_sym * 2]
        centers = y[0 : 2 * n_sym : 2]
        return centers[40 + phase - halfspan : 40 + phase + halfspan + 1]

    span = 2 * halfspan + 1
    n_isi = 5 * span
    a = np.zeros((n_isi + 5, RRC_TAPS))
    for j in range(RRC_TAPS):
        probe = np.zeros(RRC_TAPS)
        probe[j] = 1.0
        a[:n_isi, j] = np.concatenate([cascade_centers(probe, p) for p in range(5)])
        a[n_isi + j % 5, j] = 1.0
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


class _RefTxShaper:
    HISTORY_SYMBOLS = 15  # > taps span (81/8) and divisible by 5
    TAIL_SAMPLES = INTERNAL_SPS  # one 5-symbol cycle held back

    def __init__(self, profile):
        self.taps, _ = tx_rx_taps(profile.rolloff)
        self._history = np.zeros(self.HISTORY_SYMBOLS, dtype=np.complex64)
        self._pending = np.zeros(0, dtype=np.complex64)
        self._started = False

    def feed(self, symbols):
        sym = np.concatenate([self._pending, np.asarray(symbols, dtype=np.complex64)])
        usable = (sym.size // 5) * 5
        self._pending = sym[usable:]
        sym = sym[:usable]
        if usable == 0:
            return np.zeros(0, dtype=np.complex64)
        block = np.concatenate([self._history, sym])
        full = upfirdn(self.taps, block, up=INTERNAL_SPS, down=5)
        n_out = usable * INTERNAL_SPS // 5
        offset = self.HISTORY_SYMBOLS * INTERNAL_SPS // 5 + (RRC_TAPS - 1) // 2 // 5
        if self._started:
            out = full[offset - self.TAIL_SAMPLES : offset + n_out - self.TAIL_SAMPLES]
        else:
            out = full[offset : offset + n_out - self.TAIL_SAMPLES]
            self._started = True
        if sym.size >= self.HISTORY_SYMBOLS:
            self._history = sym[-self.HISTORY_SYMBOLS :]
        else:
            self._history = np.concatenate([self._history, sym])[-self.HISTORY_SYMBOLS :]
        return out.astype(np.complex64)

    def flush(self):
        if not self._started:
            return np.zeros(0, dtype=np.complex64)
        return self.feed(np.zeros(5 - self._pending.size % 5 if self._pending.size % 5 else 5,
                                  dtype=np.complex64))


def _ref_pulse_shape(symbols, profile):
    shaper = _RefTxShaper(profile)
    out = shaper.feed(symbols)
    if shaper._pending.size:
        raise LengthNotDivisible(
            f"symbol count {np.asarray(symbols).size} not divisible by 5"
        )
    return np.concatenate([out, shaper.flush()])


def _ref_quantize_int8(samples, full_scale=1.0):
    x = np.asarray(samples, dtype=np.complex64) * (FULL_SCALE_INT8 / full_scale)
    out = np.empty(x.size * 2, dtype=np.int8)
    out[0::2] = np.clip(np.round(x.real), -FULL_SCALE_INT8, FULL_SCALE_INT8)
    out[1::2] = np.clip(np.round(x.imag), -FULL_SCALE_INT8, FULL_SCALE_INT8)
    return out


def _ref_dequantize_int8(raw, full_scale=1.0):
    if isinstance(raw, bytes):
        data = np.frombuffer(raw, dtype=np.int8)
    else:
        data = np.asarray(raw, dtype=np.int8)
    scale = full_scale / FULL_SCALE_INT8
    return ((data[0::2].astype(np.float32) + 1j * data[1::2].astype(np.float32)) * scale).astype(
        np.complex64
    )


def _ref_clipped(iq, full_scale):
    return int(np.count_nonzero(np.maximum(np.abs(iq.real), np.abs(iq.imag)) > full_scale))


def _ref_gf2_inverse(mat):
    m = mat.shape[0]
    work = np.concatenate([mat.copy() % 2, np.eye(m, dtype=np.uint8)], axis=1)
    for col in range(m):
        p = np.nonzero(work[col:, col])[0][0] + col
        if p != col:
            work[[col, p]] = work[[p, col]]
        rows = np.nonzero(work[:, col])[0]
        rows = rows[rows != col]
        work[rows] ^= work[col]
    return work[:, m:]


def _ref_build_encoder(codec):
    """(accumulator, A, B^-1) from the dense matrix, built column by column."""
    mat = codec.matrix
    k, m = codec.k, mat.m
    dense = np.zeros((mat.m, mat.n), dtype=np.uint8)
    for c, rows in enumerate(mat.col_rows):
        dense[rows, c] = 1
    a, b = dense[:, :k], dense[:, k:]
    bidiag = np.tri(m, m, 0, dtype=np.uint8) - np.tri(m, m, -2, dtype=np.uint8)
    if np.array_equal(b, bidiag.astype(np.uint8)):
        return True, a, None
    return False, a, _ref_gf2_inverse(b)


def _ref_encode(state, bits):
    accumulator, a, b_inv = state
    bits = np.asarray(bits, dtype=np.uint8)
    au = (a @ bits) % 2
    if accumulator:
        parity = np.bitwise_and(np.cumsum(au), 1).astype(np.uint8)
    else:
        parity = (b_inv @ au) % 2
    return np.concatenate([bits, parity]).astype(np.uint8)


def _samples(full_scale, n=20011, seed=0):
    """Random samples, some beyond full scale, then the edge values: +-full
    scale, 2x full scale, +-0.5 LSB and +-126.5 LSB ties, +-0.0 and 1e-30,
    in every I/Q pairing.  n crosses several quantizer blocks."""
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=0.5 * full_scale, size=(n, 2)).astype(np.float32)
    lsb = full_scale / FULL_SCALE_INT8
    edge = np.array(
        [full_scale, -full_scale, 2 * full_scale, -2 * full_scale, 0.5 * lsb, -0.5 * lsb,
         1.5 * lsb, -1.5 * lsb, 126.5 * lsb, -126.5 * lsb, 0.0, -0.0, 1e-30, -1e-30],
        dtype=np.float32,
    )
    pairs = np.stack(np.broadcast_arrays(edge[:, None], edge[None, :]), axis=-1).reshape(-1, 2)
    return np.concatenate([x, pairs]).view(np.complex64).ravel()


@pytest.mark.parametrize("rolloff", [0.25, 0.35])
def test_taps_match_reference(rolloff):
    tx, rx = tx_rx_taps(rolloff)
    ref_tx, ref_rx = _ref_tx_rx_taps(rolloff)
    np.testing.assert_array_equal(tx, ref_tx)
    np.testing.assert_array_equal(rx, ref_rx)


@pytest.mark.parametrize("plan", ["desk_plan", "paper_plan"])
def test_pulse_shape_matches_reference(plan, request):
    """Random symbol runs of 5 to 100, two whole frames, and no symbols."""
    profile = request.getfixturevalue(plan).profile
    rng = np.random.default_rng(3)
    sizes = [5, 10, 15, 20, 25, 100, 2 * profile.frame_symbols, 0]
    for n in sizes:
        symbols = np.exp(1j * np.pi / 4 * rng.integers(0, 8, n)).astype(np.complex64)
        got = pulse_shape(symbols, profile)
        want = _ref_pulse_shape(symbols, profile)
        assert got.dtype == want.dtype == np.complex64
        assert got.tobytes() == want.tobytes(), n


def test_pulse_shape_rejects_what_the_reference_rejects(desk_plan):
    profile = desk_plan.profile
    for n in (1, 4, 6, 101):
        with pytest.raises(LengthNotDivisible):
            _ref_pulse_shape(np.ones(n, np.complex64), profile)
        with pytest.raises(LengthNotDivisible):
            pulse_shape(np.ones(n, np.complex64), profile)
    with pytest.raises(TypeError):
        dataclasses.replace(profile, samples_per_symbol=2)


@pytest.mark.parametrize("full_scale", [1.0, 4.0, 0.3])
def test_quantize_matches_reference(full_scale):
    x = _samples(full_scale)
    for samples in (x, x[:7], x[::3], x.astype(np.complex128)):
        got = iqfile.quantize_int8(samples, full_scale)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, _ref_quantize_int8(samples, full_scale))
    assert iqfile.quantize_int8(x[:0], full_scale).size == 0


@pytest.mark.parametrize("full_scale", [1.0, 4.0, 0.3, 2.5])
def test_dequantize_matches_reference_for_every_code(full_scale):
    codes = np.arange(256, dtype=np.uint8).view(np.int8)
    raw = np.stack([codes, codes[::-1]], axis=1).ravel()  # each code as I and as Q
    for data in (raw, raw.tobytes()):
        got = iqfile.dequantize_int8(data, full_scale)
        want = _ref_dequantize_int8(data, full_scale)
        assert got.dtype == np.complex64
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("name", ["ldpc_96_48", "ldpc_3060_1530"])
def test_encode_matches_reference(name):
    """The toy code inverts its parity tail over GF(2); the desk code is an
    accumulator.  100 random words each."""
    codec = get_codec(name)
    state = _ref_build_encoder(codec)
    rng = np.random.default_rng(11)
    for _ in range(100):
        info = rng.integers(0, 2, codec.k, dtype=np.uint8)
        np.testing.assert_array_equal(codec.encode(info), _ref_encode(state, info))


def test_packetize_matches_reference(desk_plan):
    """Clip count over the whole buffer (residual included) and payload bytes
    over whole packets, on a stream with clipped samples."""
    full_scale = 0.8
    iq = _samples(full_scale, n=3 * desk_plan.packet.samples_per_packet * 17 + 5, seed=2)
    want_clipped = _ref_clipped(iq, full_scale)
    assert want_clipped > 100
    got = packetize(iq, desk_plan, full_scale=full_scale)
    assert got.clipped == want_clipped
    p = desk_plan.packet.samples_per_packet
    raw = _ref_quantize_int8(iq[: len(got.packets) * p], full_scale)
    assert b"".join(pkt.payload for pkt in got.packets) == raw.tobytes()
