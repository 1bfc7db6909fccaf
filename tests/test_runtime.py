"""Worker-pool pipeline and the benchmark harness."""

import json
import threading
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import chunksdr.fec as fec
import chunksdr.runtime as runtime
from chunksdr.channel import ChannelConfig, apply as chan_apply
from chunksdr.combiner import CombinerStats, ReorderBuffer
from chunksdr.distributor import AssemblyStats, ChunkRecord, assemble_chunks, packetize
from chunksdr.e2e import E2EResult, run_e2e
from chunksdr.modem import generate_stream
from chunksdr.runtime import (
    ReceiverContext,
    RunStats,
    bench,
    default_workers,
    make_bench_corpus,
    run_pipeline,
    run_pipeline_processes,
)


@pytest.fixture(scope="module")
def small_corpus(desk_ctx):
    return make_bench_corpus(desk_ctx, n_chunks=4, seed=3)


def _bitstream(blocks):
    return np.concatenate([b.info_bits for b in blocks]) if blocks else np.zeros(0, np.uint8)


def _owned_arrays(*roots, depth=5):
    """The distinct arrays that own the memory of every array reachable from
    `roots` through attributes, lists, tuples and dicts (views count once, as
    their base)."""
    owners, seen = {}, set()

    def walk(obj, depth):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
            return
        if depth == 0 or id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            children = obj
        elif isinstance(obj, dict):
            children = obj.values()
        elif hasattr(obj, "__dict__"):
            children = vars(obj).values()
        else:
            return
        for child in children:
            walk(child, depth - 1)

    for root in roots:
        walk(root, depth)
    return list(owners.values())


class TestReceiverContext:
    def test_footprint_under_one_megabyte(self):
        """Every worker inherits the context: it holds the decoder's tables and
        the demod tables, and no encoder until something encodes."""
        fec._load_packaged.cache_clear()  # a codec no other test has encoded with
        ctx = ReceiverContext.build("desk")
        arrays = _owned_arrays(ctx.codec, ctx.tables)
        assert len(arrays) < 100
        assert sum(a.nbytes for a in arrays) < 1_000_000
        rng = np.random.default_rng(0)
        codeword = ctx.codec.encode(rng.integers(0, 2, ctx.codec.k, dtype=np.uint8))
        assert not ctx.codec.syndrome(codeword).any()
        assert sum(a.nbytes for a in _owned_arrays(ctx.codec)) > 1_000_000  # dense H now


class TestRunPipeline:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("n_chunks", [4, 16])
    def test_worker_count_invariance(self, desk_ctx, n_chunks, backend):
        """1 worker and 8 workers produce the identical combined output and
        combiner counters; 16 chunks are more than 8 workers keep in flight."""
        corpus = make_bench_corpus(desk_ctx, n_chunks=n_chunks, seed=3)
        one = run_pipeline(corpus, desk_ctx, workers=1)
        eight = run_pipeline(corpus, desk_ctx, workers=8, backend=backend)
        assert [b.start_sample_number for b in one.blocks] == [
            b.start_sample_number for b in eight.blocks
        ]
        np.testing.assert_array_equal(_bitstream(one.blocks), _bitstream(eight.blocks))
        assert eight.stats.combiner == one.stats.combiner

    @pytest.mark.parametrize(
        "frames, seed, recovered", [(64, 9, 63), (700, 0, 700)], ids=["64", "700"]
    )
    def test_lossless_frame_accounting(self, desk_ctx, frames, seed, recovered):
        """A lossless desk run recovers every scored frame (the generator
        ground truth bounds head/tail losses to one) and blames no packet
        loss.  700 frames are more packets than a 4096-packet queue holds:
        the receive path must not pass through one."""
        result = run_e2e(desk_ctx, frames=frames, esn0_db=12.0, workers=2, seed=seed)
        assert result.frames_recovered >= recovered
        assert result.ber == 0.0
        summary = result.summary()
        assert summary["chunks_dropped"] == summary["packets_missing"] == 0

    def test_summary_carries_every_counter(self):
        """Each counter the run keeps is a key of the e2e summary; only the
        timing lists and the dropped chunks' first samples are left out."""
        left_out = {"stage_seconds", "chunk_seconds", "dropped_first_samples"}
        nested = {"combiner", "assembly"}  # flattened into the summary
        counters = {
            f.name
            for cls in (RunStats, CombinerStats, AssemblyStats)
            for f in fields(cls)
            if f.name not in left_out | nested
        }
        summary = E2EResult(0, 0, 0, 0, 0.0, RunStats()).summary()
        assert counters <= set(summary)

    def test_stats_counters(self, desk_ctx, small_corpus):
        result = run_pipeline(small_corpus, desk_ctx, workers=2)
        stats = result.stats
        assert stats.chunks_in == len(small_corpus)
        assert stats.chunks_ok == len(small_corpus)
        assert stats.combiner.emitted == len(result.blocks)
        assert len(stats.chunk_seconds) == len(small_corpus)
        assert set(stats.stage_seconds) >= {"resample", "timing", "phase", "framesync", "fec"}

    def test_workers_drain_and_exit(self, desk_ctx, small_corpus):
        """All worker threads terminate once the chunk source is exhausted."""
        before = threading.active_count()
        run_pipeline(iter(small_corpus), desk_ctx, workers=4)
        assert threading.active_count() == before

    def test_propagates_failures_as_counts(self, desk_ctx):
        """A noise-only chunk fails sync but never halts the stream."""
        rng = np.random.default_rng(5)
        n = desk_ctx.plan.chunk.chunk_samples
        noise = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)
        chunks = [ChunkRecord(0, noise)]
        result = run_pipeline(chunks, desk_ctx, workers=1)
        assert result.stats.sync_failures == 1
        assert result.blocks == []

    @pytest.fixture(scope="class")
    def corpus10(self, desk_ctx):
        corpus = make_bench_corpus(desk_ctx, n_chunks=10, seed=3)
        return corpus, run_pipeline(corpus, desk_ctx, workers=1)

    def test_lagging_chunk_loses_nothing(self, desk_ctx, corpus10, monkeypatch):
        """Chunk 2 finishes only after four later chunks have returned: its
        blocks still reach the output, which equals the 1-worker run."""
        corpus, one = corpus10
        lagging = corpus[2].first_sample_number
        later_done, returned = threading.Event(), []
        lock = threading.Lock()
        waited = []
        process = runtime.process_chunk

        def lagging_process(chunk, *args, **kwargs):
            if chunk.first_sample_number == lagging:
                waited.append(later_done.wait(timeout=60))
            out = process(chunk, *args, **kwargs)
            if chunk.first_sample_number > lagging:
                with lock:
                    returned.append(chunk.first_sample_number)
                    if len(returned) == 4:
                        later_done.set()
            return out

        monkeypatch.setattr(runtime, "process_chunk", lagging_process)
        two = run_pipeline(corpus, desk_ctx, workers=2)
        assert waited == [True]
        assert [b.start_sample_number for b in two.blocks] == [
            b.start_sample_number for b in one.blocks
        ]
        np.testing.assert_array_equal(_bitstream(two.blocks), _bitstream(one.blocks))
        assert two.stats.combiner == one.stats.combiner

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize(
        "bad, position, workers, error",
        [
            (np.zeros(10, np.complex64), 0, 2, "ChunkTooShort"),
            # not a ChunkSdrError (numpy raises inside demod), and more chunks
            # behind it than the runner holds in flight
            (None, 1, 1, "ValueError"),
        ],
        ids=["too_short", "no_samples"],
    )
    def test_pathological_chunk_counted_not_fatal(
        self, desk_ctx, corpus10, backend, bad, position, workers, error
    ):
        """A chunk that raises is a counted error; every other chunk decodes."""
        corpus, one = corpus10
        clean = one.blocks
        chunks = list(corpus)
        chunks.insert(position, ChunkRecord(corpus[position].first_sample_number, bad))
        results = []
        runner = threading.Thread(
            target=lambda: results.append(
                run_pipeline(chunks, desk_ctx, workers=workers, backend=backend)
            ),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=120)
        assert results, "run_pipeline did not return"
        stats = results[0].stats
        assert stats.chunk_errors == 1
        assert stats.chunk_error_types == {error: 1}
        assert stats.chunks_in == len(chunks)
        assert stats.chunks_ok == len(corpus)
        assert [b.start_sample_number for b in results[0].blocks] == [
            b.start_sample_number for b in clean
        ]
        np.testing.assert_array_equal(_bitstream(results[0].blocks), _bitstream(clean))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_start_cut_below_half_frame_loses_no_frame():
    """A stream received from sample 400 of the transmission (F = 1680) must
    decode every whole frame.  Today each frame is keyed on a grid anchored
    at receive sample 0, and a chunk rejects a frame it fully holds when the
    snapped key falls below its first sample: 712 blocks, 5 gaps and key
    spacings of 2F, where the uncut stream gives 717 blocks and no gap."""
    ctx = ReceiverContext.build("desk", servers=2)
    plan = ctx.plan
    stream = generate_stream(plan.profile, ctx.codec, 720, seed=0)
    rx = chan_apply(stream.samples, ChannelConfig.for_profile(plan.profile, esn0_db=12.0, seed=0))
    packets = packetize(rx[400:], plan).packets
    chunks, assembly = assemble_chunks([packets] * plan.distribution.num_servers, plan)
    assert (len(chunks), assembly.chunks_dropped) == (42, 0)
    result = run_pipeline(chunks, ctx, workers=2)
    assert result.stats.combiner.gaps == 0
    assert len(result.blocks) == 717


def _released_from(monkeypatch, key):
    """An event set once a block with a key at or above `key` leaves the combiner."""
    released = threading.Event()
    submit = ReorderBuffer.submit_group

    def watching_submit(buf, blocks):
        out = submit(buf, blocks)
        if any(b.start_sample_number >= key for b in out):
            released.set()
        return out

    monkeypatch.setattr(ReorderBuffer, "submit_group", watching_submit)
    return released


class TestFloorRelease:
    """Blocks after a lost chunk leave the combiner while the stream goes on."""

    @pytest.fixture(scope="class")
    def corpus5(self, desk_ctx):
        return make_bench_corpus(desk_ctx, n_chunks=5, seed=3)

    @pytest.mark.parametrize("loss", ["skipped", "too_short"])
    def test_blocks_past_a_lost_chunk_released_before_the_stream_ends(
        self, desk_ctx, corpus5, monkeypatch, loss
    ):
        released = _released_from(monkeypatch, corpus5[3].first_sample_number)
        seen_before_end = []

        def feed():
            yield from corpus5[:2]
            if loss == "too_short":
                yield ChunkRecord(corpus5[2].first_sample_number, np.zeros(10, np.complex64))
            yield from corpus5[3:]
            seen_before_end.append(released.wait(timeout=60))

        result = run_pipeline(feed(), desk_ctx, workers=1)
        assert seen_before_end == [True]
        assert result.stats.chunk_errors == (1 if loss == "too_short" else 0)
        assert result.stats.combiner.overflow_emits == 0
        assert result.stats.combiner.stale == 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_finished_chunk_released_before_next_hand_out(
        self, desk_ctx, corpus5, monkeypatch, backend
    ):
        """Chunk 2 is lost and nothing is in flight once chunk 3 finishes:
        chunk 3's blocks leave the combiner before chunk 4 is handed out."""
        released = _released_from(monkeypatch, corpus5[3].first_sample_number)
        seen_before_hand_out = []

        def feed():
            yield from (corpus5[i] for i in (0, 1, 3))
            seen_before_hand_out.append(released.wait(timeout=20))
            yield corpus5[4]

        result = run_pipeline(feed(), desk_ctx, workers=1, backend=backend)
        assert seen_before_hand_out == [True]
        assert len(result.blocks) == 69
        assert result.stats.combiner.gaps == 1
        assert result.stats.combiner.stale == 0

    @pytest.mark.parametrize("late", [1, 2], ids=["below_last_hand_out", "below_floor"])
    def test_late_hand_out_counted(self, desk_ctx, corpus5, monkeypatch, late):
        """A chunk handed out after chunk 2 has finished, below chunk 2 or again
        at chunk 2 (below the floor announced when it finished): the floor is
        off from then on, keys stay ascending and every decoded block is
        accounted for."""
        chunk2_first = corpus5[2].first_sample_number
        chunk2_done = threading.Event()
        handed_late = threading.Event()
        floors_after_late = []
        decoded = []
        submit, process = ReorderBuffer.submit_group, runtime.process_chunk

        def watching_submit(buf, blocks):
            if handed_late.is_set():
                floors_after_late.append(buf.floor)
            out = submit(buf, blocks)
            if any(b.start_sample_number >= chunk2_first for b in blocks):
                chunk2_done.set()
            return out

        def counting_process(*args, **kwargs):
            out = process(*args, **kwargs)
            decoded.append(len(out[0]))
            return out

        monkeypatch.setattr(ReorderBuffer, "submit_group", watching_submit)
        monkeypatch.setattr(runtime, "process_chunk", counting_process)

        def feed():
            yield corpus5[0]
            yield corpus5[2]
            assert chunk2_done.wait(timeout=20)
            handed_late.set()
            yield corpus5[late]

        result = run_pipeline(feed(), desk_ctx, workers=1)
        combiner = result.stats.combiner
        keys = [b.start_sample_number for b in result.blocks]
        assert len(floors_after_late) >= 2  # the late hand-out and its blocks
        assert set(floors_after_late) == {-1}
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(decoded) == 3
        assert combiner.emitted == len(result.blocks)
        assert combiner.emitted + combiner.duplicates + combiner.stale == sum(decoded)
        if late == 1:
            assert combiner.stale > 0  # chunk 2's blocks had left before chunk 1 came
        else:
            assert combiner.duplicates >= decoded[-1]  # the repeat adds nothing

    def test_out_of_order_feed_matches_ascending(self, desk_ctx, small_corpus):
        ascending = run_pipeline(small_corpus[:3], desk_ctx, workers=1)
        shuffled = run_pipeline([small_corpus[i] for i in (0, 2, 1)], desk_ctx, workers=1)
        assert [b.start_sample_number for b in shuffled.blocks] == [
            b.start_sample_number for b in ascending.blocks
        ]
        np.testing.assert_array_equal(_bitstream(shuffled.blocks), _bitstream(ascending.blocks))
        assert shuffled.stats.combiner.stale == 0


class TestProcessBackend:
    def test_matches_thread_backend(self, desk_ctx, small_corpus):
        threaded = run_pipeline(small_corpus, desk_ctx, workers=2)
        blocks, times = run_pipeline_processes(small_corpus, desk_ctx.plan, workers=2)
        assert [b.start_sample_number for b in blocks] == [
            b.start_sample_number for b in threaded.blocks
        ]
        np.testing.assert_array_equal(_bitstream(blocks), _bitstream(threaded.blocks))
        assert len(times) == len(small_corpus)

    def test_any_input_order(self, desk_ctx, small_corpus):
        ascending, _ = run_pipeline_processes(small_corpus, desk_ctx.plan, workers=2)
        shuffled, _ = run_pipeline_processes(
            [small_corpus[i] for i in (2, 0, 3, 1)], desk_ctx.plan, workers=2
        )
        assert [b.start_sample_number for b in shuffled] == [
            b.start_sample_number for b in ascending
        ]
        np.testing.assert_array_equal(_bitstream(shuffled), _bitstream(ascending))


STAGES = ["resample", "timing", "phase", "framesync", "softbits", "fec"]


class TestBench:
    def test_report_shapes_and_serialization(self, desk_ctx):
        report = bench(desk_ctx, [1, 2], n_chunks=3, seed=1)
        assert [(r["backend"], r["workers"]) for r in report.rows] == [
            ("thread", 1), ("thread", 2), ("process", 1), ("process", 2)
        ]
        loaded = json.loads(report.to_json())
        assert loaded["corpus"]["profile"] == "desk"
        assert len(loaded["rows"]) == 4

    def test_stage_ms_add_up_to_chunk_ms(self, desk_ctx):
        """One row per backend with the full schema; the stages cover all of
        a chunk's time but the untimed call overhead."""
        report = bench(desk_ctx, [1], n_chunks=2, seed=2)
        assert set(report.machine) == {"cpu_count", "affinity_cores", "python", "numpy",
                                       "blas_threads"}
        plan = desk_ctx.plan
        assert report.corpus == {
            "profile": "desk", "esn0_db": 12.0, "seed": 2, "chunks": 2,
            "chunk_samples": plan.chunk.chunk_samples,
            "advance_samples": plan.chunk.advance_samples,
        }
        assert [r["backend"] for r in report.rows] == ["thread", "process"]
        for row in report.rows:
            assert (row["workers"], row["passes"], row["chunks"]) == (1, 1, 2)
            assert row["input_samples_per_second"] > 0
            # one pass: its quartiles are the row's own rate
            rate = row["input_samples_per_second"]
            assert row["pass_samples_per_second"] == pytest.approx(
                {"p25": rate, "p50": rate, "p75": rate})
            assert set(row["chunk_ms"]) == {"mean", "p90", "max"}
            assert list(row["stage_ms"]) == STAGES
            total, mean = sum(row["stage_ms"].values()), row["chunk_ms"]["mean"]
            assert 0.95 * mean <= total <= mean, row

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stage_shares_sum_to_one(self, desk_ctx, backend):
        """Each stage's share of a chunk's mean time; on either backend the
        shares sum to one but for the untimed call overhead."""
        report = bench(desk_ctx, [1], n_chunks=3, seed=2)
        (row,) = [r for r in report.rows if r["backend"] == backend]
        shares = {s: ms / row["chunk_ms"]["mean"] for s, ms in row["stage_ms"].items()}
        assert 0.95 <= sum(shares.values()) <= 1.0, shares

    def test_stage_ms_cover_every_pass(self, desk_ctx, monkeypatch):
        """With `seconds`, a stage's ms per chunk is its time summed over all
        passes, not the last pass's."""
        passes = iter(2 * [{"timing": 0.3, "fec": 0.1}, {"timing": 0.1, "fec": 0.5}])

        def fake_run(corpus, ctx, workers, backend):
            stats = runtime.RunStats(stage_seconds=next(passes), chunk_seconds=[0.1, 0.2])
            return runtime.PipelineResult(blocks=[], stats=stats)

        clock = iter([0.0, 0.5, 2.0, 2.0, 2.5, 4.0])  # passes of 0.5 s and 1.5 s
        monkeypatch.setattr(runtime, "make_bench_corpus", lambda ctx, n, seed: ["c0", "c1"])
        monkeypatch.setattr(runtime, "run_pipeline", fake_run)
        monkeypatch.setattr(runtime, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        rows = bench(desk_ctx, [1], seconds=1.5).rows
        assert [r["backend"] for r in rows] == ["thread", "process"]
        for row in rows:
            assert (row["passes"], row["chunks"]) == (2, 4)
            advance = desk_ctx.plan.chunk.advance_samples
            assert row["input_samples_per_second"] == 4 * advance / 2.0
            # quartiles of the two passes' rates, 2 chunks in 0.5 s and in 1.5 s
            assert row["pass_samples_per_second"] == pytest.approx(
                {"p25": 2.0 * advance, "p50": 8 / 3 * advance, "p75": 10 / 3 * advance})
            assert row["chunk_ms"]["max"] == pytest.approx(200.0)
            assert row["chunk_ms"]["mean"] == pytest.approx(150.0)
            expected = dict.fromkeys(STAGES, 0.0) | {"timing": 100.0, "fec": 150.0}
            assert row["stage_ms"] == pytest.approx(expected)

    def test_default_workers_reserves_two_cores(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert default_workers() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert default_workers() == 1
