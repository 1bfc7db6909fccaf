"""Per-chunk receive chain.

resample/matched-filter -> two-pass symbol tracking -> two-pass phase
tracking -> coherent frame sync -> soft decisions.  Demodulating a chunk is
a pure function of (chunk, tables): the tracking loops start from scratch on
every chunk, and the precomputed tables are shared read-only across workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import NoPeak
from ..iqfile import SC8, dequantize_int8
from ..modem import Preamble
from ..numerology import WaveformProfile
from .filters import DOWN, UP, outputs_touched, resample_matched_filter, rx_taps
from .framesync import frame_sync
from .interp import lagrange_bank
from .phase import track_phase_two_pass
from .softbits import SoftFrame, llr_map_deinterleave
from .timing import track_symbols_two_pass

__all__ = [
    "DemodTables",
    "ChunkDemodResult",
    "demod_chunk",
    "resample_matched_filter",
    "frame_sync",
    "track_symbols_two_pass",
    "track_phase_two_pass",
    "llr_map_deinterleave",
]


@dataclass(frozen=True)
class DemodTables:
    """Shared read-only precomputes for all workers."""

    profile: WaveformProfile
    rx_taps: np.ndarray
    preamble: Preamble

    @classmethod
    def for_profile(cls, profile: WaveformProfile) -> "DemodTables":
        preamble = Preamble.for_profile(profile)
        preamble.conj_fft(profile.frame_symbols)  # warm the FFT cache
        lagrange_bank()
        return cls(profile=profile, rx_taps=rx_taps(profile), preamble=preamble)


@dataclass
class ChunkDemodResult:
    frames: list[SoftFrame]
    skips: int = 0
    repeats: int = 0
    sync_failed: bool = False
    peak_ratio: float = 0.0
    noise_var: float = 0.0
    stage_seconds: dict = field(default_factory=dict)
    words_lost_to_erasures: int = 0  # set by the FEC stage


# Zero samples prepended before resampling so a frame starting on the chunk's
# first sample still gets a (filter-edge-degraded) preamble and an intact
# payload; without it the interpolator window support drops that frame.
HEAD_PAD_SAMPLES = 16
# Resampled samples (and symbols) at the chunk head covered by pad/filter
# edges: tracked with frozen loops, excluded from backward warmup.
HEAD_GUARD_RESAMPLED = 40
HEAD_GUARD_SYMBOLS = 24

def demod_chunk(
    chunk,
    tables: DemodTables,
    taps=None,
) -> ChunkDemodResult:
    """Demodulate one chunk into soft frames tagged with absolute boundaries.

    8-bit (``SC8``) samples are dequantized here, straight into the padded
    buffer; other samples are converted to complex64.  `taps` is an optional
    monitor tap set; when absent the probe cost is a single None check per
    stage.

    A chunk's erased spans (``chunk.erased``, zero-filled lost packets) are
    mapped onto the resampled grid through the filter's support and onto the
    symbol grid through the interpolator window.  The timing and phase loops
    coast over every block that touches them, as they do over the head
    guard; erased preamble symbols leave the rotation and noise estimates;
    erased payload symbols get LLR 0, and their frames carry the erased LLR
    positions so the decoder can tell a word it determined from one it did
    not.  A chunk without erased spans takes exactly the path it would
    without this mapping.
    """
    profile = tables.profile
    stage_t: dict[str, float] = {}
    t0 = time.perf_counter()

    samples = np.asarray(chunk.samples)
    if samples.ndim != 1:
        raise ValueError(f"chunk samples must be one-dimensional, not {samples.ndim}-d")
    padded = np.zeros(HEAD_PAD_SAMPLES + samples.size, np.complex64)
    if samples.dtype == SC8:
        dequantize_int8(samples, chunk.full_scale, out=padded[HEAD_PAD_SAMPLES:])
    else:
        padded[HEAD_PAD_SAMPLES:] = samples
    resampled = resample_matched_filter(padded, tables.rx_taps)
    held = None
    if chunk.erased:
        spans = [(a + HEAD_PAD_SAMPLES, b + HEAD_PAD_SAMPLES) for a, b in chunk.erased]
        held = outputs_touched(spans, resampled.size)
    t1 = time.perf_counter()
    stage_t["resample"] = t1 - t0
    if taps is not None:
        taps.offer("resampler", resampled)

    warmup = min(2 * profile.warmup_symbols, resampled.size // 2)
    tracked = track_symbols_two_pass(
        resampled, profile.timing_loop_bw, warmup=warmup,
        head_guard=HEAD_GUARD_RESAMPLED, hold=held,
    )
    erased = tracked.held
    t2 = time.perf_counter()
    stage_t["timing"] = t2 - t1
    if taps is not None:
        taps.offer("timing", tracked.symbols)

    warmup_ph = min(profile.warmup_symbols, tracked.symbols.size // 2)
    derotated, _, _ = track_phase_two_pass(
        tracked.symbols, profile.phase_loop_bw, warmup_ph,
        head_guard=HEAD_GUARD_SYMBOLS, hold=erased,
    )
    t3 = time.perf_counter()
    stage_t["phase"] = t3 - t2
    if taps is not None:
        taps.offer("phase", derotated)

    result = ChunkDemodResult(
        frames=[], skips=tracked.skips, repeats=tracked.repeats, stage_seconds=stage_t
    )
    try:
        sync = frame_sync(derotated, tables.preamble, profile.frame_symbols, erased=erased)
    except NoPeak:
        stage_t["framesync"] = time.perf_counter() - t3
        result.sync_failed = True
        return result
    t4 = time.perf_counter()
    stage_t["framesync"] = t4 - t3
    if taps is not None:
        taps.offer("framesync", sync.payloads.reshape(-1))

    # map each frame boundary to its transmit-time sample number: the tracker
    # positions are indices into the 2/sps stream; input time is 4/5 of that.
    # A chunk only owns frames it fully contains (the overlap guarantees a
    # partially-covered frame belongs to a neighboring chunk), which also
    # keeps duplicate blocks bit-identical across chunks.
    rotation = np.exp(-1j * sync.rotation).astype(np.complex64)
    result.peak_ratio = sync.peak_ratio
    result.noise_var = sync.noise_var
    frames = result.frames
    frame_samples = profile.frame_samples
    n_pre = tables.preamble.symbols.size
    chunk_first = chunk.first_sample_number
    chunk_end = chunk_first + samples.size
    for i, start_sym in enumerate(sync.frame_starts):
        pos = tracked.positions[start_sym]
        abs_est = chunk_first - HEAD_PAD_SAMPLES + pos * (DOWN / UP)
        start = frame_samples * int(round(abs_est / frame_samples))
        if start < chunk_first or start + frame_samples > chunk_end:
            continue
        frames.append(
            llr_map_deinterleave(
                sync.payloads[i] * rotation,
                sync.noise_var,
                start_sample_number=start,
                expected_symbols=profile.payload_symbols,
                erased=None if erased is None else erased[
                    start_sym + n_pre : start_sym + profile.frame_symbols
                ],
            )
        )
    t5 = time.perf_counter()
    stage_t["softbits"] = t5 - t4
    if taps is not None:
        taps.offer("softbits", frames[-1].llrs if frames else np.zeros(0, np.float32))

    return result
