"""Per-chunk working set of the decoder and the symbol tracker.

A forked worker's peak RSS is what it inherits from the receiver plus what
one chunk allocates at once.  These bound, by tracemalloc, the transient
allocations of the two largest stages on a desk chunk: a batch of 16 words
through `decode_batch`, and `track_symbols_two_pass`; and of the syndrome
check that `decode` runs every iteration.
"""

import tracemalloc

import numpy as np
import pytest

import chunksdr.demod as demod
from chunksdr.fec import BATCH_SIZE, decode_batch
from chunksdr.runtime import make_bench_corpus

MB = 1e6


def _peak(fn, *args, **kwargs):
    """fn's result and the peak of what it allocated, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def desk_chunk(desk_ctx):
    """A desk chunk at 12 dB and its demodulated frames (17 of them)."""
    chunk = make_bench_corpus(desk_ctx, 3, seed=0)[1]
    return chunk, demod.demod_chunk(chunk, desk_ctx.tables).frames


def test_decode_batch_of_16_desk_frames_peaks_under_5_mb(desk_ctx, desk_chunk):
    _, frames = desk_chunk
    blocks, peak = _peak(decode_batch, frames[:BATCH_SIZE], desk_ctx.codec)
    assert len(blocks) == BATCH_SIZE and not any(b.failed for b in blocks)
    assert peak <= 5 * MB, f"{peak / MB:.2f} MB"


def test_syndrome_check_of_16_desk_words_peaks_under_0_2_mb(desk_ctx, desk_chunk):
    """Packed to one uint64 lane per column, 16 words gather 8 bytes per edge,
    not a (16, edges) array and a (16, m, 13) row table."""
    _, frames = desk_chunk
    hard = np.array([(frame.llrs < 0).astype(np.uint8) for frame in frames[:BATCH_SIZE]])
    ok, peak = _peak(desk_ctx.codec._syndrome_ok, hard)
    assert ok.shape == (BATCH_SIZE,)
    assert peak <= 0.2 * MB, f"{peak / MB:.3f} MB"


def test_symbol_tracking_of_a_desk_chunk_peaks_under_2_mb(desk_ctx, desk_chunk, monkeypatch):
    chunk, frames = desk_chunk
    peaks = []
    track = demod.track_symbols_two_pass

    def measured(*args, **kwargs):
        tracked, peak = _peak(track, *args, **kwargs)
        peaks.append(peak)
        return tracked

    monkeypatch.setattr(demod, "track_symbols_two_pass", measured)
    assert len(demod.demod_chunk(chunk, desk_ctx.tables).frames) == len(frames)
    assert len(peaks) == 1 and peaks[0] <= 2 * MB, f"{peaks[0] / MB:.2f} MB"
