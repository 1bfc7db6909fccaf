"""The tracking loops against their per-block numpy reference bodies.

The `_ref_*` functions below are the loop bodies as first written: every
block derotates, slices and averages with numpy calls on 8 or 64 values.
The shipped loops compute the same recursion on Python scalars, so on desk
chunks at 12 dB and 10 ppm both must agree to rounding and take the same
clock-slip decisions.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from chunksdr.channel import ChannelConfig, apply as chan_apply
from chunksdr.demod import (
    HEAD_GUARD_RESAMPLED,
    HEAD_GUARD_SYMBOLS,
    HEAD_PAD_SAMPLES,
    phase,
    timing,
)
from chunksdr.demod.filters import outputs_touched, resample_matched_filter
from chunksdr.demod.interp import N_FILTERS, lagrange_bank
from chunksdr.demod.phase import FREQ_LIMIT, PHASE_BLOCK, track_phase_two_pass
from chunksdr.demod.timing import (
    _WIN_LEFT,
    BLOCK_OUT,
    FLUSH,
    RATE_LIMIT,
    _PassResult,
    track_symbols_two_pass,
)
from chunksdr.modem import generate_stream
from dsp_refs import _POINTS, slice_positions

N_CHUNKS = 3


def _ref_wrap(theta):
    return float((theta + np.pi) % (2.0 * np.pi) - np.pi)


def _ref_phase_pass(
    x, theta, freq, kp, ki, collect, freeze_below=0, freq_limit=FREQ_LIMIT
):
    ramp = np.arange(1, PHASE_BLOCK + 1, dtype=np.float64)
    n_blocks = x.size // PHASE_BLOCK
    out = np.empty(x.size, dtype=np.complex64) if collect else None
    for b in range(n_blocks):
        seg = x[b * PHASE_BLOCK : (b + 1) * PHASE_BLOCK]
        phases = theta + freq * ramp
        y = seg * np.exp(-1j * phases)
        if collect:
            out[b * PHASE_BLOCK : (b + 1) * PHASE_BLOCK] = y
        if b * PHASE_BLOCK < freeze_below:
            theta = _ref_wrap(theta + freq * PHASE_BLOCK)
            continue
        hats = _POINTS[slice_positions(y)]
        err = y * np.conj(hats)
        power = np.mean(err.real**2 + err.imag**2) + 1e-30
        e = float(np.mean(err.imag)) / power
        theta = _ref_wrap(theta + freq * PHASE_BLOCK + kp * e)
        freq += ki * e
        if freq > freq_limit:
            freq = freq_limit
        elif freq < -freq_limit:
            freq = -freq_limit
    tail = x.size - n_blocks * PHASE_BLOCK
    if tail and collect:
        phases = theta + freq * ramp[:tail]
        out[n_blocks * PHASE_BLOCK :] = x[n_blocks * PHASE_BLOCK :] * np.exp(-1j * phases)
    return theta, freq, out


def _ref_gardner_ted(early, ontime, late):
    diff = np.asarray(late) - np.asarray(early)
    ontime = np.asarray(ontime)
    return float(np.sum(ontime.real * diff.real) + np.sum(ontime.imag * diff.imag))


def _ref_timing_pass(
    x, q0, tau0, rate0, kp, ki, collect, freeze_below=0, rate_limit=RATE_LIMIT
):
    bank = lagrange_bank()
    windows = sliding_window_view(x, FLUSH)
    n_rows = windows.shape[0]
    q, tau, rate = q0, float(tau0), float(rate0)
    skips = repeats = 0
    prev_mid = 0.0 + 0.0j
    centers_out = []
    pos_out = []
    while q >= _WIN_LEFT and q - _WIN_LEFT + BLOCK_OUT <= n_rows:
        fi = int(tau * N_FILTERS + 0.5)
        if fi >= N_FILTERS:
            fi = N_FILTERS - 1
        y = windows[q - _WIN_LEFT : q - _WIN_LEFT + BLOCK_OUT] @ bank[fi]
        centers = y[0::2]
        mids = y[1::2]
        if collect:
            centers_out.append(centers)
            pos_out.append(q + tau + 2.0 * np.arange(BLOCK_OUT // 2))
        early = np.empty_like(mids)
        early[0] = prev_mid
        early[1:] = mids[:-1]
        prev_mid = mids[-1]
        if q >= freeze_below:
            power = np.mean(y.real**2 + y.imag**2) + 1e-30
            err = _ref_gardner_ted(early, centers, mids) / ((BLOCK_OUT // 2) * power)
            rate += ki * err
            if rate > rate_limit:
                rate = rate_limit
            elif rate < -rate_limit:
                rate = -rate_limit
            tau += BLOCK_OUT * rate + kp * err
        else:
            tau += BLOCK_OUT * rate
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
    symbols = (
        np.concatenate(centers_out).astype(np.complex64)
        if centers_out
        else np.zeros(0, np.complex64)
    )
    positions = np.concatenate(pos_out) if pos_out else np.zeros(0)
    return result, symbols, positions


class _FrozenWhere:
    """A `freeze_below` stand-in that lets the references above follow a
    freeze mask: the timing reference tests `q >= freeze_below` and the
    phase reference `i < freeze_below`, and both comparisons fall through
    to this object, which answers them from the mask.  `freeze` is what the
    shipped passes take: a boolean mask with one entry per input."""

    def __init__(self, freeze):
        self.frozen = np.asarray(freeze, dtype=bool)

    def __le__(self, q):  # q >= freeze_below: the block updates the loop
        return not self.frozen[q]

    def __gt__(self, i):  # i < freeze_below: the block coasts
        return bool(self.frozen[i])


def _masked_timing_pass(x, q0, tau0, rate0, kp, ki, collect, freeze):
    return _ref_timing_pass(x, q0, tau0, rate0, kp, ki, collect, _FrozenWhere(freeze))


def _masked_phase_pass(x, theta, freq, kp, ki, collect, freeze):
    return _ref_phase_pass(x, theta, freq, kp, ki, collect, _FrozenWhere(freeze))


@pytest.fixture(scope="module")
def desk_rx(desk_ctx):
    """A desk stream at 12 dB, 10 ppm and a carrier offset, long enough
    for N_CHUNKS chunks."""
    plan = desk_ctx.plan
    advance = plan.chunk.advance_samples
    n_frames = ((N_CHUNKS - 1) * advance + plan.chunk.chunk_samples) // plan.frame_samples + 2
    stream = generate_stream(plan.profile, desk_ctx.codec, n_frames, seed=31)
    return chan_apply(
        stream.samples,
        ChannelConfig.for_profile(
            plan.profile, clock_offset_ppm=10, carrier_freq_offset=5e-5,
            initial_phase=0.7, esn0_db=12.0, seed=32,
        ),
    )


def _resample(desk_ctx, samples):
    """Resampled the way demod_chunk does: head pad, then the
    matched-filter resampler."""
    padded = np.concatenate([np.zeros(HEAD_PAD_SAMPLES, np.complex64), samples])
    return resample_matched_filter(padded, desk_ctx.tables.rx_taps)


@pytest.fixture(scope="module")
def resampled_chunks(desk_ctx, desk_rx):
    plan = desk_ctx.plan
    advance = plan.chunk.advance_samples
    return [
        _resample(desk_ctx, desk_rx[i * advance : i * advance + plan.chunk.chunk_samples])
        for i in range(N_CHUNKS)
    ]


def _track_symbols(profile, y):
    warmup = min(2 * profile.warmup_symbols, y.size // 2)
    return track_symbols_two_pass(
        y, profile.timing_loop_bw, warmup=warmup, head_guard=HEAD_GUARD_RESAMPLED
    )


def _track_phase(profile, symbols):
    warmup = min(profile.warmup_symbols, symbols.size // 2)
    return track_phase_two_pass(
        symbols, profile.phase_loop_bw, warmup, head_guard=HEAD_GUARD_SYMBOLS
    )


@pytest.mark.parametrize("index", range(N_CHUNKS))
def test_timing_loop_matches_reference(desk_ctx, resampled_chunks, monkeypatch, index):
    profile = desk_ctx.plan.profile
    y = resampled_chunks[index]
    got = _track_symbols(profile, y)
    monkeypatch.setattr(timing, "_run_pass", _masked_timing_pass)
    want = _track_symbols(profile, y)
    assert (got.skips, got.repeats, got.consumed_samples) == (
        want.skips, want.repeats, want.consumed_samples
    )
    assert got.symbols.dtype == want.symbols.dtype
    np.testing.assert_allclose(got.symbols, want.symbols, rtol=0, atol=1e-6)
    np.testing.assert_allclose(got.positions, want.positions, rtol=0, atol=1e-9)
    assert abs(got.rate - want.rate) <= 1e-9


@pytest.mark.parametrize("index", range(N_CHUNKS))
def test_phase_loop_matches_reference(desk_ctx, resampled_chunks, monkeypatch, index):
    profile = desk_ctx.plan.profile
    symbols = _track_symbols(profile, resampled_chunks[index]).symbols
    got, got_theta, got_freq = _track_phase(profile, symbols)
    monkeypatch.setattr(phase, "_run_pass", _masked_phase_pass)
    want, want_theta, want_freq = _track_phase(profile, symbols)
    assert got.dtype == want.dtype and got.size == want.size
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
    assert abs(got_theta - want_theta) <= 1e-9
    assert abs(got_freq - want_freq) <= 1e-9


@pytest.mark.parametrize("blocks", [1, 4])
def test_timing_pass_reaches_the_input_end(blocks):
    """With 64*blocks + 7 inputs the last block's window ends on the last
    sample; the pass must read it and stop exactly there."""
    rng = np.random.default_rng(blocks)
    n = BLOCK_OUT * blocks + FLUSH - 1
    x = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)
    got = timing._run_pass(x, _WIN_LEFT, 0.25, 0.0, 0.01, 1e-4, True, np.zeros(n, bool))
    want = _ref_timing_pass(x, _WIN_LEFT, 0.25, 0.0, 0.01, 1e-4, collect=True)
    assert got[0].q == want[0].q
    assert got[1].size == want[1].size == blocks * BLOCK_OUT // 2
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-6)


def test_timing_pass_fitting_no_block_is_empty():
    """An input one sample short of a block's window emits nothing."""
    x = np.ones(BLOCK_OUT + FLUSH - 2, np.complex64)
    result, symbols, positions = timing._run_pass(
        x, _WIN_LEFT, 0.25, 0.0, 0.01, 1e-4, True, np.zeros(x.size, bool)
    )
    assert result.q == _WIN_LEFT and (result.skips, result.repeats) == (0, 0)
    assert symbols.dtype == np.complex64 and symbols.shape == (0,)
    assert positions.dtype == np.float64 and positions.shape == (0,)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17])
def test_phase_tail_matches_reference(desk_ctx, monkeypatch, n):
    """A tail alone, whole blocks, and a tail after blocks: every symbol is
    derotated, a tail on the ramp of the state the last block left."""
    profile = desk_ctx.plan.profile
    rng = np.random.default_rng(n)
    x = (_POINTS[rng.integers(0, 8, n)] * np.exp(0.3j + 0.05j * np.arange(n))).astype(np.complex64)
    got, got_theta, got_freq = track_phase_two_pass(x, profile.phase_loop_bw, n // 2)
    monkeypatch.setattr(phase, "_run_pass", _masked_phase_pass)
    want, want_theta, want_freq = track_phase_two_pass(x, profile.phase_loop_bw, n // 2)
    assert got.dtype == want.dtype == np.complex64 and got.size == want.size == n
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
    assert abs(got_theta - want_theta) <= 1e-9 and abs(got_freq - want_freq) <= 1e-9
    if n >= PHASE_BLOCK:
        assert got_theta != 0.0  # the blocks moved the loop


def test_loops_on_a_lossy_chunk_match_masked_references(desk_ctx, desk_rx, monkeypatch):
    """Erased spans, one inside the warmup and one past it, mapped to the
    hold mask as demod_chunk maps them: both loops coast over the blocks
    the mask touches in both passes, as the per-block references do."""
    plan = desk_ctx.plan
    profile = plan.profile
    spp = plan.packet.samples_per_packet
    samples = desk_rx[: plan.chunk.chunk_samples].copy()
    spans = [(5 * spp, 6 * spp), (60 * spp, 62 * spp)]
    for a, b in spans:
        samples[a:b] = 0
    y = _resample(desk_ctx, samples)
    hold = outputs_touched([(a + HEAD_PAD_SAMPLES, b + HEAD_PAD_SAMPLES) for a, b in spans], y.size)
    warmup = min(2 * profile.warmup_symbols, y.size // 2)
    assert hold[:warmup].any() and hold[warmup:].any()

    def run_both():
        t = track_symbols_two_pass(
            y, profile.timing_loop_bw, warmup=warmup, head_guard=HEAD_GUARD_RESAMPLED, hold=hold
        )
        p = track_phase_two_pass(
            t.symbols, profile.phase_loop_bw, min(profile.warmup_symbols, t.symbols.size // 2),
            head_guard=HEAD_GUARD_SYMBOLS, hold=t.held,
        )
        return t, p

    got, (got_ph, got_theta, got_freq) = run_both()
    monkeypatch.setattr(timing, "_run_pass", _masked_timing_pass)
    monkeypatch.setattr(phase, "_run_pass", _masked_phase_pass)
    want, (want_ph, want_theta, want_freq) = run_both()
    assert got.held.any()
    assert (got.skips, got.repeats, got.consumed_samples) == (
        want.skips, want.repeats, want.consumed_samples
    )
    np.testing.assert_array_equal(got.held, want.held)
    np.testing.assert_allclose(got.symbols, want.symbols, rtol=0, atol=1e-6)
    np.testing.assert_allclose(got.positions, want.positions, rtol=0, atol=1e-9)
    assert abs(got.rate - want.rate) <= 1e-9
    np.testing.assert_allclose(got_ph, want_ph, rtol=0, atol=1e-6)
    assert abs(got_theta - want_theta) <= 1e-9 and abs(got_freq - want_freq) <= 1e-9
