"""Worker-pool runtime and benchmark harness.

Workers pull chunks from a common bounded queue, run the full per-chunk
pipeline (demod then FEC), and forward decoded blocks to the combiner inbox;
the combiner thread reorders and deduplicates.  Chunk processing is a pure
function, so the combined output is identical for any worker count.

Threads are the default backend (shared tables, live monitor taps).  Because
the tracking loops are Python-level, the throughput benchmark defaults to a
process pool: the same chunk-per-worker dataflow, one worker process per
chunk in flight.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .combiner import DEFAULT_CAPACITY, CombinerStats, ReorderBuffer
from .demod import ChunkDemodResult, DemodTables, demod_chunk
from .distributor import ChunkRecord
from .errors import ChunkSdrError
from .fec import BATCH_SIZE, DecodedBlock, decode_batch, get_codec
from .numerology import Numerology, load_numerology

_QUEUE_DEPTH = 8
_SENTINEL = None


@dataclass
class ReceiverContext:
    """Everything a worker needs; read-only after construction."""

    plan: Numerology
    tables: DemodTables
    codec: object

    @classmethod
    def build(cls, plan_or_name, servers: int = 1) -> "ReceiverContext":
        plan = (
            plan_or_name
            if isinstance(plan_or_name, Numerology)
            else load_numerology(plan_or_name, servers=servers)
        )
        profile = plan.profile
        return cls(
            plan=plan,
            tables=DemodTables.for_profile(profile),
            codec=get_codec(profile.codec, profile.payload_bits),
        )


@dataclass
class RunStats:
    chunks_in: int = 0
    chunks_ok: int = 0
    sync_failures: int = 0
    chunk_errors: int = 0
    frames_out: int = 0
    decode_failures: int = 0
    extra_frames: int = 0
    skips: int = 0
    repeats: int = 0
    stage_seconds: dict = field(default_factory=dict)
    chunk_seconds: list = field(default_factory=list)
    combiner: CombinerStats = field(default_factory=CombinerStats)

    def absorb(self, result: ChunkDemodResult, elapsed: float, guaranteed: int) -> None:
        self.chunks_in += 1
        if result.sync_failed:
            self.sync_failures += 1
        else:
            self.chunks_ok += 1
        if len(result.frames) > guaranteed:
            self.extra_frames += len(result.frames) - guaranteed
        self.skips += result.skips
        self.repeats += result.repeats
        self.chunk_seconds.append(elapsed)
        for stage, sec in result.stage_seconds.items():
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + sec


def process_chunk(
    chunk: ChunkRecord,
    ctx: ReceiverContext,
    taps=None,
    origin: tuple = (),
) -> tuple[list[DecodedBlock], ChunkDemodResult, float]:
    """The full per-chunk pipeline: demod, then FEC in batches of 16."""
    t0 = time.perf_counter()
    result = demod_chunk(chunk, ctx.tables, taps=taps)
    blocks: list[DecodedBlock] = []
    t1 = time.perf_counter()
    for i in range(0, len(result.frames), BATCH_SIZE):
        blocks.extend(
            decode_batch(result.frames[i : i + BATCH_SIZE], ctx.codec, origin=origin)
        )
    t2 = time.perf_counter()
    result.stage_seconds["fec"] = t2 - t1
    return blocks, result, t2 - t0


@dataclass
class PipelineResult:
    blocks: list[DecodedBlock]
    stats: RunStats


def run_pipeline(
    chunks,
    ctx: ReceiverContext,
    workers: int = 1,
    taps_factory=None,
    capacity: int = DEFAULT_CAPACITY,
    queue_depth: int = _QUEUE_DEPTH,
) -> PipelineResult:
    """Thread-per-chunk worker pool feeding the combiner.

    `chunks` is any iterable of ChunkRecords; `taps_factory(worker_name)`
    optionally builds a per-worker tap set.

    Chunks are expected in ascending first-sample order, as the assemblers
    produce them.  The combiner then knows that no block still to come can
    have a key below the oldest chunk in flight, and releases every pending
    block below that floor at once, even across a dropped chunk.  Once a
    chunk arrives out of order, the floor is dropped for the rest of the
    run and only the combiner's sequential rule releases blocks.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    work: queue.Queue = queue.Queue(maxsize=queue_depth)
    # (first sample, None) when a chunk is handed out; (first sample, blocks)
    # when it is done, with no blocks for a chunk that raised
    inbox: queue.Queue = queue.Queue()
    stats = RunStats()
    stats_lock = threading.Lock()
    guaranteed = ctx.plan.chunk.guaranteed_frames

    def worker(worker_id: int) -> None:
        taps = taps_factory(f"w{worker_id}") if taps_factory is not None else None
        while True:
            chunk = work.get()
            if chunk is _SENTINEL:
                work.task_done()
                break
            first = chunk.first_sample_number
            try:
                blocks, result, elapsed = process_chunk(
                    chunk, ctx, taps=taps, origin=(worker_id, first)
                )
            except ChunkSdrError:
                # a bad chunk is a counted event, never a stalled stream
                with stats_lock:
                    stats.chunks_in += 1
                    stats.chunk_errors += 1
                inbox.put((first, []))
                work.task_done()
                continue
            with stats_lock:
                stats.absorb(result, elapsed, guaranteed)
            inbox.put((first, blocks))
            work.task_done()

    buffer = ReorderBuffer(block_spacing=ctx.plan.frame_samples, capacity=capacity)
    ordered: list[DecodedBlock] = []

    def combine() -> None:
        in_flight: deque[int] = deque()  # handed-out first samples, oldest first
        done: Counter[int] = Counter()  # finished but not yet at the front
        last_out = None
        ascending = True
        while (message := inbox.get()) is not _SENTINEL:
            first, blocks = message
            if blocks is None:
                ascending = ascending and (last_out is None or first >= last_out)
                last_out = first
                in_flight.append(first)
                blocks = []
            else:
                done[first] += 1
            while in_flight and done[in_flight[0]]:
                oldest = in_flight.popleft()
                done[oldest] -= 1
                if not done[oldest]:
                    del done[oldest]
            if ascending:
                buffer.floor = in_flight[0] if in_flight else last_out + 1
            else:
                buffer.floor = -1
            ordered.extend(buffer.submit_group(blocks))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    combiner_thread = threading.Thread(target=combine)
    for t in threads:
        t.start()
    combiner_thread.start()
    for chunk in chunks:
        inbox.put((chunk.first_sample_number, None))
        work.put(chunk)
    for _ in threads:
        work.put(_SENTINEL)
    for t in threads:
        t.join()
    inbox.put(_SENTINEL)
    combiner_thread.join()
    ordered.extend(buffer.flush())

    stats.combiner = buffer.stats
    stats.frames_out = len(ordered)
    stats.decode_failures = sum(1 for b in ordered if b.failed)
    return PipelineResult(blocks=ordered, stats=stats)


# -- process backend -----------------------------------------------------------

_PROC_CTX: ReceiverContext | None = None


def _proc_init(plan: Numerology) -> None:
    global _PROC_CTX
    _PROC_CTX = ReceiverContext.build(plan)


def _proc_run(chunk: ChunkRecord):
    blocks, result, elapsed = process_chunk(chunk, _PROC_CTX)
    return blocks, elapsed


def run_pipeline_processes(
    chunks: list[ChunkRecord],
    plan: Numerology,
    workers: int,
    capacity: int = DEFAULT_CAPACITY,
) -> tuple[list[DecodedBlock], list[float]]:
    """Map chunks over a process pool; returns combined blocks + chunk times.

    Results come back in input order and reach the combiner as they arrive.
    The combiner's floor is the smallest first sample still to come back,
    so pending blocks below it are released early whatever the input order.
    """
    firsts = [chunk.first_sample_number for chunk in reversed(chunks)]
    # the floor once result i is in: the smallest first sample of chunks i + 1, ...
    floors = list(accumulate(firsts, min))[::-1][1:] + [-1]
    buffer = ReorderBuffer(block_spacing=plan.frame_samples, capacity=capacity)
    ordered: list[DecodedBlock] = []
    times: list[float] = []
    with multiprocessing.get_context("fork").Pool(
        processes=workers, initializer=_proc_init, initargs=(plan,)
    ) as pool:
        for floor, (blocks, elapsed) in zip(floors, pool.imap(_proc_run, chunks, chunksize=1)):
            buffer.floor = floor
            ordered.extend(buffer.submit_group(blocks))
            times.append(elapsed)
    ordered.extend(buffer.flush())
    return ordered, times


# -- benchmark harness ----------------------------------------------------------


@dataclass
class BenchEntry:
    workers: int
    chunks: int
    seconds: float
    input_samples_per_second: float
    t_p_mean: float
    t_p_max: float
    chunk_period: float
    realtime_ok: bool
    stage_shares: dict

    def row(self) -> dict:
        d = dict(self.__dict__)
        d["stage_shares"] = {k: round(v, 4) for k, v in self.stage_shares.items()}
        return d


@dataclass
class BenchReport:
    profile: str
    backend: str
    entries: list[BenchEntry]

    def to_json(self) -> str:
        return json.dumps(
            {
                "profile": self.profile,
                "backend": self.backend,
                "entries": [e.row() for e in self.entries],
            },
            indent=2,
        )

    def to_csv(self) -> str:
        lines = ["workers,chunks,seconds,input_sps,t_p_mean,t_p_max,chunk_period,realtime_ok"]
        for e in self.entries:
            lines.append(
                f"{e.workers},{e.chunks},{e.seconds:.4f},{e.input_samples_per_second:.0f},"
                f"{e.t_p_mean:.4f},{e.t_p_max:.4f},{e.chunk_period:.4f},{int(e.realtime_ok)}"
            )
        return "\n".join(lines) + "\n"


def default_workers() -> int:
    """Leave two cores for the OS plus input/output handling."""
    return max(1, (os.cpu_count() or 2) - 2)


def make_bench_corpus(ctx: ReceiverContext, n_chunks: int, seed: int = 0, esn0_db: float = 12.0):
    """Precompute an in-memory chunk corpus for as-fast-as-consumed feeding."""
    from .channel import ChannelConfig, apply as chan_apply
    from .modem import generate_stream

    plan = ctx.plan
    advance = plan.chunk.advance_samples
    need = (n_chunks - 1) * advance + plan.chunk.chunk_samples
    n_frames = need // plan.frame_samples + 2
    stream = generate_stream(plan.profile, ctx.codec, n_frames, seed=seed)
    rx = chan_apply(
        stream.samples,
        ChannelConfig.for_profile(plan.profile, esn0_db=esn0_db, seed=seed + 1),
    )
    return [
        ChunkRecord(
            first_sample_number=i * advance,
            samples=rx[i * advance : i * advance + plan.chunk.chunk_samples],
        )
        for i in range(n_chunks)
    ]


def bench(
    ctx: ReceiverContext,
    workers_list: list[int],
    n_chunks: int = 8,
    backend: str = "process",
    seed: int = 0,
    seconds: float | None = None,
) -> BenchReport:
    """Throughput sweep over worker counts on a precomputed in-memory corpus.

    With `seconds` set, the corpus is cycled until that much wall time has
    elapsed per worker count; otherwise each sweep point runs one pass.
    """
    corpus = make_bench_corpus(ctx, n_chunks, seed=seed)
    advance = ctx.plan.chunk.advance_samples
    entries = []
    for workers in workers_list:
        chunk_times: list[float] = []
        stage_shares: dict = {}
        done_chunks = 0
        t0 = time.perf_counter()
        while True:
            if backend == "process":
                _, times = run_pipeline_processes(corpus, ctx.plan, workers)
                chunk_times.extend(times)
            else:
                result = run_pipeline(corpus, ctx, workers=workers)
                chunk_times.extend(result.stats.chunk_seconds)
                total = sum(result.stats.stage_seconds.values()) or 1.0
                stage_shares = {
                    k: v / total for k, v in result.stats.stage_seconds.items()
                }
            done_chunks += len(corpus)
            elapsed = time.perf_counter() - t0
            if seconds is None or elapsed >= seconds:
                break
        sps = done_chunks * advance / elapsed
        period = elapsed / done_chunks
        t_p_max = max(chunk_times) if chunk_times else 0.0
        entries.append(
            BenchEntry(
                workers=workers,
                chunks=done_chunks,
                seconds=elapsed,
                input_samples_per_second=sps,
                t_p_mean=float(np.mean(chunk_times)) if chunk_times else 0.0,
                t_p_max=t_p_max,
                chunk_period=period,
                realtime_ok=workers * period >= t_p_max,
                stage_shares=stage_shares,
            )
        )
    return BenchReport(profile=ctx.plan.profile.name, backend=backend, entries=entries)
