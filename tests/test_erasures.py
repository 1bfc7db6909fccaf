"""Chunks that lost packets: the erased spans are decoded around, not dropped.

A lost packet reaches the worker as a zero-filled span listed in
`ChunkRecord.erased`.  The tracking loops coast over it, its symbols get LLR
0, and a word the code cannot determine is counted, not emitted.
"""

import numpy as np
import pytest

from chunksdr.channel import ChannelConfig, apply as chan_apply
from chunksdr.demod import HEAD_GUARD_RESAMPLED, HEAD_GUARD_SYMBOLS, HEAD_PAD_SAMPLES
from chunksdr.demod.filters import outputs_touched, resample_matched_filter
from chunksdr.demod.phase import track_phase_two_pass
from chunksdr.demod.timing import track_symbols_two_pass
from chunksdr.distributor import assemble_chunks, packetize, receive_chunks
from chunksdr.modem import generate_stream
from chunksdr.runtime import ReceiverContext, run_pipeline

FULL_SCALE = 4.0
PPM = 10.0


def _desk_stream(ctx, n_chunks, seed, cut=0):
    """Seeded desk stream at 12 dB and 10 ppm with a carrier offset, cut to
    `n_chunks` chunks; returns (info bits, received samples)."""
    plan = ctx.plan
    n = (n_chunks - 1) * plan.chunk.advance_samples + plan.chunk.chunk_samples
    stream = generate_stream(plan.profile, ctx.codec, (n + cut) // plan.frame_samples + 3, seed=seed)
    cfg = ChannelConfig.for_profile(
        plan.profile, clock_offset_ppm=PPM, carrier_freq_offset=1e-4 / 1.6,
        initial_phase=0.4, esn0_db=12.0, seed=seed + 1,
    )
    return stream.info_bits, chan_apply(stream.samples, cfg)[cut : cut + n]


@pytest.fixture(scope="module")
def one_server(desk_ctx):
    """(info bits, packets) of a 5-chunk desk stream."""
    info_bits, rx = _desk_stream(desk_ctx, 5, seed=11)
    return info_bits, packetize(rx, desk_ctx.plan, full_scale=FULL_SCALE).packets


def _run(ctx, packets, lost=()):
    keep = [p for p in packets if p.packet_number not in set(lost)]
    chunks, assembly = assemble_chunks(
        [keep] * ctx.plan.distribution.num_servers, ctx.plan, FULL_SCALE
    )
    return run_pipeline(chunks, ctx), assembly


def _delivered(result, info_bits, frame_samples):
    """Frame index -> bits of every block not flagged failed; each must be
    the transmitted frame."""
    out = {}
    for block in result.blocks:
        f, rem = divmod(block.start_sample_number, frame_samples)
        assert rem == 0
        if not block.failed:
            np.testing.assert_array_equal(block.info_bits, info_bits[f])
            out[f] = block.info_bits
    return out


def test_one_lost_packet_loses_at_most_the_frame_holding_it(desk_ctx, one_server):
    """Packet 316 lies inside frame 42, in the interior of chunk 2.  Dropping
    the chunk lost its 17 frames; decoding around the hole may lose only
    frame 42."""
    info_bits, packets = one_server
    F = desk_ctx.plan.frame_samples
    spp = desk_ctx.plan.packet.samples_per_packet
    assert 316 * spp // F == (317 * spp - 1) // F == 42
    clean, _ = _run(desk_ctx, packets)
    lossy, assembly = _run(desk_ctx, packets, lost=[316])
    assert (assembly.chunks_dropped, assembly.chunks_partial, assembly.packets_missing) == (0, 1, 1)
    want = _delivered(clean, info_bits, F)
    got = _delivered(lossy, info_bits, F)
    assert set(want) - set(got) <= {42}
    assert set(got) <= set(want)
    assert lossy.stats.sync_failures == 0
    assert lossy.stats.words_lost_to_erasures == len(set(want) - set(got))


def test_erased_frame_yields_no_delivered_block(desk_ctx, one_server):
    """Packets 300..307 hold all of frame 40: its LLRs are all 0, which meet
    the syndrome as the all-zero codeword.  No block for it may pass as
    decoded; it is counted instead."""
    info_bits, packets = one_server
    F = desk_ctx.plan.frame_samples
    spp = desk_ctx.plan.packet.samples_per_packet
    lost = range(300, 308)
    assert lost[0] * spp <= 40 * F and 41 * F * (1 + 1e-5 * PPM) <= (lost[-1] + 1) * spp
    lossy, assembly = _run(desk_ctx, packets, lost=lost)
    assert (assembly.chunks_partial, assembly.packets_missing) == (1, 8)
    assert not [b for b in lossy.blocks if b.start_sample_number == 40 * F and not b.failed]
    assert lossy.stats.words_lost_to_erasures >= 1
    got = _delivered(lossy, info_bits, F)
    assert 40 not in got
    clean, _ = _run(desk_ctx, packets)
    assert set(_delivered(clean, info_bits, F)) - set(got) <= {39, 40, 41}


def test_lossy_stream_identical_across_runners():
    """Partial chunks decode to the same blocks and combiner counters on any
    worker count and either backend, and the same loss draw assembles the
    same chunks on one server as on two."""
    runners = {2: ((1, "thread"), (3, "thread"), (2, "process")), 1: ((2, "thread"),)}
    runs, assemblies = [], []
    for servers, configs in runners.items():
        ctx = ReceiverContext.build("desk", servers=servers)
        _, rx = _desk_stream(ctx, 9, seed=21, cut=700)
        chunks, assembly = receive_chunks(rx, ctx.plan, FULL_SCALE, loss_rate=3e-3, seed=4)
        assemblies.append(assembly)
        runs += [run_pipeline(chunks, ctx, workers=w, backend=b) for w, b in configs]
    two, one = assemblies
    assert two.chunks_partial >= 2 and two.chunks_dropped == 0
    assert one == two
    ref = runs[0]
    assert ref.stats.words_lost_to_erasures >= 1
    for other in runs[1:]:
        assert [(b.start_sample_number, b.failed) for b in other.blocks] == [
            (b.start_sample_number, b.failed) for b in ref.blocks
        ]
        for a, b in zip(other.blocks, ref.blocks):
            np.testing.assert_array_equal(a.info_bits, b.info_bits)
        assert other.stats.combiner == ref.stats.combiner
        assert other.stats.words_lost_to_erasures == ref.stats.words_lost_to_erasures


@pytest.mark.parametrize("span", [(0, 224), (1120, 1344), (2776, 3000), (1000, 1001)])
def test_erased_span_maps_to_the_resampled_samples_it_reaches(desk_ctx, span):
    """The outputs marked for an input span are exactly those that change
    when the span's samples change."""
    rng = np.random.default_rng(span[0])
    x = (rng.normal(size=3000) + 1j * rng.normal(size=3000)).astype(np.complex64)
    y = x.copy()
    y[span[0] : span[1]] = 0
    a = resample_matched_filter(x, desk_ctx.tables.rx_taps)
    b = resample_matched_filter(y, desk_ctx.tables.rx_taps)
    np.testing.assert_array_equal(outputs_touched([span], a.size), a != b)


def test_empty_hold_takes_the_head_guard_path(desk_ctx, one_server):
    """A hold mask with nothing set tracks exactly as no mask: the mask
    generalises the head-guard freeze without moving it."""
    _, packets = one_server
    plan = desk_ctx.plan
    profile = plan.profile
    (chunk, *_), _ = assemble_chunks([packets], plan, FULL_SCALE)
    x = np.concatenate([np.zeros(HEAD_PAD_SAMPLES, np.complex64),
                        chunk.samples.view(np.int8).astype(np.float32).view(np.complex64)])
    y = resample_matched_filter(x, desk_ctx.tables.rx_taps)
    warmup = min(2 * profile.warmup_symbols, y.size // 2)
    tracked = [
        track_symbols_two_pass(
            y, profile.timing_loop_bw, warmup=warmup,
            head_guard=HEAD_GUARD_RESAMPLED, hold=hold,
        )
        for hold in (None, np.zeros(y.size, bool))
    ]
    assert tracked[0].symbols.tobytes() == tracked[1].symbols.tobytes()
    assert tracked[0].positions.tobytes() == tracked[1].positions.tobytes()
    assert tracked[0].held is None and not tracked[1].held.any()
    symbols = tracked[0].symbols
    derotated = [
        track_phase_two_pass(
            symbols, profile.phase_loop_bw, min(profile.warmup_symbols, symbols.size // 2),
            head_guard=HEAD_GUARD_SYMBOLS, hold=hold,
        )[0]
        for hold in (None, np.zeros(symbols.size, bool))
    ]
    assert derotated[0].tobytes() == derotated[1].tobytes()
