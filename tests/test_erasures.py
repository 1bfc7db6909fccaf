"""Chunks that lost packets: the erased spans are decoded around, not dropped.

A lost packet reaches the worker as a zero-filled span listed in
`ChunkRecord.erased`.  The tracking loops coast over it, its symbols get LLR
0, and a word the code cannot determine is counted, not emitted.  The
codeword order spreads a packet's erased symbols over the whole word, so the
checks determine them and a hole of one or two packets costs no frame.
"""

import numpy as np
import pytest

from chunksdr.channel import ChannelConfig, apply as chan_apply
from chunksdr.demod import HEAD_GUARD_RESAMPLED, HEAD_GUARD_SYMBOLS, HEAD_PAD_SAMPLES
from chunksdr.demod.filters import outputs_touched, resample_matched_filter
from chunksdr.demod.phase import track_phase_two_pass
from chunksdr.demod.softbits import SoftFrame, llr_map, llr_map_deinterleave
from chunksdr.demod.timing import track_symbols_two_pass
from chunksdr.distributor import assemble_chunks, lose_packets, packetize
from chunksdr.fec import BATCH_SIZE, decode_batch
from chunksdr.modem import Constellation8PSK, build_frame, deinterleave, generate_stream, interleave
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


@pytest.fixture(scope="module")
def clean_frames(desk_ctx, one_server):
    """Frames the one_server stream delivers with no packet lost."""
    info_bits, packets = one_server
    clean, _ = _run(desk_ctx, packets)
    return set(_delivered(clean, info_bits, desk_ctx.plan.frame_samples))


# (first lost packet, adjacent packets lost).  Packets 150 and 450 start
# frames 20 and 60, and 307 and 622 hold the starts of frames 41 and 83, so
# those holes take a preamble; 316 lies inside frame 42, in chunk 2; 385 is
# in the group chunks 2 and 3 share.
@pytest.mark.parametrize("first, width", [
    (20, 1), (95, 1), (150, 1), (230, 1), (307, 1), (316, 1), (385, 1), (450, 1),
    (530, 1), (605, 1), (35, 2), (149, 2), (306, 2), (449, 2), (621, 2),
])
def test_lost_packets_lose_no_frame(desk_ctx, one_server, clean_frames, first, width):
    """A hole of one or two packets at 12 dB erases at most 293 symbols of
    a word.  In the codeword order they land on bits spread over the whole
    word, which the checks determine: every frame is still delivered, and
    no word is lost to the erasures."""
    info_bits, packets = one_server
    lossy, assembly = _run(desk_ctx, packets, lost=range(first, first + width))
    assert assembly.chunks_dropped == 0 and assembly.chunks_partial == (2 if first == 385 else 1)
    assert assembly.packets_missing == width * assembly.chunks_partial
    assert _delivered(lossy, info_bits, desk_ctx.plan.frame_samples).keys() == clean_frames
    assert lossy.stats.sync_failures == 0
    assert lossy.stats.words_lost_to_erasures == 0


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
    same chunks on one server as on two.

    Besides the random draw, packets 298..301 are lost: 4 adjacent packets
    inside frame 40's payload erase more symbols than a rate-1/2 word can
    spare, so the word-lost path is taken on every runner."""
    runners = {2: ((1, "thread"), (3, "thread"), (2, "process")), 1: ((2, "thread"),)}
    hole = range(298, 302)
    runs, assemblies = [], []
    for servers, configs in runners.items():
        ctx = ReceiverContext.build("desk", servers=servers)
        _, rx = _desk_stream(ctx, 9, seed=21, cut=700)
        packets = packetize(rx, ctx.plan, full_scale=FULL_SCALE).packets
        kept = [p for p in lose_packets(packets, 3e-3, seed=4) if p.packet_number not in hole]
        chunks, assembly = assemble_chunks([kept] * servers, ctx.plan, FULL_SCALE)
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


# -- codec level: encode, 8PSK, AWGN, soft demap; no demodulator ------------

# Frame errors over 150 words are a binomial count, with a standard deviation
# of at most sqrt(150 / 4) = 6.1; the difference of two such counts has at
# most 8.7.  Three of those is the margin.
WORDS_PER_POINT = 150
BINOMIAL_MARGIN = 26


def _decoded_over_awgn(ctx, n_words, esn0_db, seed, ordered=True, hole=0):
    """Words of `n_words` that decode_batch delivers with the right bits,
    after 8PSK over AWGN at `esn0_db` with a seeded run of `hole` erased
    symbols each.  `ordered` sends them as `build_frame` does and maps them
    back through `llr_map_deinterleave`; otherwise in the identity order,
    by `interleave` and `deinterleave` alone (without erasures)."""
    profile, codec = ctx.plan.profile, ctx.codec
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, size=(n_words, codec.k), dtype=np.uint8)
    noise_var = 10.0 ** (-esn0_db / 10.0)
    frames = []
    for bits in info:
        if ordered:
            symbols = build_frame(bits, profile, codec)[profile.preamble_symbols :]
        else:
            symbols = Constellation8PSK().map_bits(interleave(codec.encode(bits)))
        noise = rng.normal(scale=np.sqrt(noise_var / 2), size=(symbols.size, 2))
        rx = (symbols + noise @ [1, 1j]).astype(np.complex64)
        if ordered:
            erased = np.zeros(symbols.size, bool)
            start = rng.integers(0, symbols.size - hole + 1)
            erased[start : start + hole] = True
            frames.append(llr_map_deinterleave(rx, noise_var, erased=erased))
        else:
            frames.append(SoftFrame(0, deinterleave(llr_map(rx, noise_var).reshape(-1))))
    decoded = 0
    for i in range(0, n_words, BATCH_SIZE):
        blocks = decode_batch(frames[i : i + BATCH_SIZE], codec)
        decoded += sum(
            not b.failed and np.array_equal(b.info_bits, bits)
            for b, bits in zip(blocks, info[i : i + BATCH_SIZE])
        )
    return decoded


@pytest.mark.parametrize("esn0_db", [5.5, 6.0])
def test_codeword_order_costs_no_frames_without_erasures(desk_ctx, esn0_db):
    """Near the code's threshold the codeword order loses no more words
    than the identity order, beyond the binomial margin (measured: 112 and
    148 decoded against 37 and 108)."""
    seed = int(esn0_db * 10)
    ordered = _decoded_over_awgn(desk_ctx, WORDS_PER_POINT, esn0_db, seed)
    identity = _decoded_over_awgn(desk_ctx, WORDS_PER_POINT, esn0_db, seed, ordered=False)
    assert ordered >= identity - BINOMIAL_MARGIN


@pytest.mark.parametrize("hole", [153, 306])
def test_one_or_two_packet_hole_decodes(desk_ctx, hole):
    """A lost desk packet erases 153 symbols once the filter support is
    added, and 306 covers two adjacent ones.  At 12 dB all 30 words with
    such a hole converge within MAX_ITERATIONS and the checks determine
    every erased bit."""
    assert _decoded_over_awgn(desk_ctx, 30, 12.0, seed=hole, hole=hole) == 30
