"""Chunk runner and benchmark harness.

One runner, `run_pipeline`, hands chunks to a `concurrent.futures` pool of
threads or forked processes.  Each worker runs the full per-chunk pipeline
(demod then FEC).  Chunks finish in any order, but their blocks reach the
combiner in hand-out order, which drops the overlap duplicates.  Chunk
processing is a pure function, so the combined output and the combiner's
counters are identical for any worker count and either backend.

Threads carry live monitor taps, since the monitor serves from this
process.  Forked processes inherit the context and sidestep the GIL that
the Python-level tracking loops hold.  The benchmark harness measures both.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import count

import numpy as np

from .combiner import CombinerStats, ReorderBuffer
from .demod import ChunkDemodResult, DemodTables, demod_chunk
from .distributor import DEFAULT_FULL_SCALE, AssemblyStats, ChunkRecord, receive_chunks
from .fec import BATCH_SIZE, DecodedBlock, decode_batch, get_codec
from .numerology import Numerology, load_numerology

_QUEUE_DEPTH = 8  # chunks handed out beyond one per worker
_UNREPORTED = {"stage_seconds", "chunk_seconds", "combiner", "assembly", "dropped_first_samples"}


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
    chunk_error_types: Counter = field(default_factory=Counter)  # class name -> count
    decode_failures: int = 0
    extra_frames: int = 0
    words_lost_to_erasures: int = 0  # failed words that touched an erased span, not emitted
    skips: int = 0
    repeats: int = 0
    stage_seconds: dict = field(default_factory=dict)
    chunk_seconds: list = field(default_factory=list)
    combiner: CombinerStats = field(default_factory=CombinerStats)
    assembly: AssemblyStats = field(default_factory=AssemblyStats)  # from `receive_chunks`

    def report(self) -> dict:
        """Every counter of the run in one flat dict: the run's own, the
        combiner's and the assembly's, without the timings or the dropped
        chunks' first samples."""
        parts = (self, self.combiner, self.assembly)
        return {f.name: getattr(p, f.name) for p in parts for f in fields(p) if f.name not in _UNREPORTED}

    def absorb(self, result: ChunkDemodResult, elapsed: float, guaranteed: int) -> None:
        self.chunks_in += 1
        if result.sync_failed:
            self.sync_failures += 1
        else:
            self.chunks_ok += 1
        if len(result.frames) > guaranteed:
            self.extra_frames += len(result.frames) - guaranteed
        self.words_lost_to_erasures += result.words_lost_to_erasures
        self.skips += result.skips
        self.repeats += result.repeats
        self.chunk_seconds.append(elapsed)
        for stage, sec in result.stage_seconds.items():
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + sec


def process_chunk(
    chunk: ChunkRecord,
    ctx: ReceiverContext,
    taps=None,
) -> tuple[list[DecodedBlock], ChunkDemodResult, float]:
    """The full per-chunk pipeline: demod, then FEC in batches of 16.

    A failed word that touched an erased span is counted in
    `words_lost_to_erasures` and not returned: its bits are no decision,
    and a neighbouring chunk may hold the frame whole, so emitting it would
    make the combined output depend on which copy arrives first.
    """
    t0 = time.perf_counter()
    result = demod_chunk(chunk, ctx.tables, taps=taps)
    blocks: list[DecodedBlock] = []
    t1 = time.perf_counter()
    for i in range(0, len(result.frames), BATCH_SIZE):
        blocks.extend(decode_batch(result.frames[i : i + BATCH_SIZE], ctx.codec))
    if chunk.erased:
        lost = [b.failed and f.erased is not None for b, f in zip(blocks, result.frames)]
        result.words_lost_to_erasures = sum(lost)
        blocks = [b for b, gone in zip(blocks, lost) if not gone]
    t2 = time.perf_counter()
    result.stage_seconds["fec"] = t2 - t1
    return blocks, result, t2 - t0


@dataclass
class PipelineResult:
    blocks: list[DecodedBlock]
    stats: RunStats


_worker = threading.local()  # per pool worker: ctx and taps


def _init_worker(ctx: ReceiverContext, taps_factory, ids) -> None:
    _worker.ctx = ctx
    _worker.taps = taps_factory(f"w{next(ids)}") if taps_factory is not None else None


def _run_chunk(chunk: ChunkRecord):
    # `process_chunk` is looked up at call time, so wrappers installed on the
    # module reach the workers.  The LLRs stay behind: they would be most of
    # what a process pool pickles back, and only the frame count is used.
    blocks, result, elapsed = process_chunk(chunk, _worker.ctx, taps=_worker.taps)
    frames = [replace(frame, llrs=None, erased=None) for frame in result.frames]
    return blocks, replace(result, frames=frames), elapsed


def run_pipeline(
    chunks,
    ctx: ReceiverContext,
    workers: int = 1,
    backend: str = "thread",
    taps_factory=None,
) -> PipelineResult:
    """Run chunks over a pool of `workers` threads or forked processes.

    `chunks` is any iterable of ChunkRecords, consumed as the pool takes
    them (at most `workers + 8` in flight); `taps_factory(worker_name)`
    optionally builds a per-worker tap set (in each worker process, on the
    process backend).  A chunk that raises is counted in `chunk_errors` and
    `chunk_error_types`, and the stream goes on.

    A finished chunk's blocks wait in the runner until every chunk handed
    out before it has finished; then they reach the combiner in hand-out
    order, so a lagging worker delays blocks but never loses them.

    Chunks are expected in ascending first-sample order on the plan's chunk
    grid (first samples whole multiples of `advance_samples` apart), as the
    assemblers produce them, and a chunk keeps only the frames it fully
    contains.  So no block still to come can have a key below the oldest
    chunk in flight or, when none is in flight, below the next chunk's
    first sample: the last hand-out plus `advance_samples`.  The combiner
    releases every pending block below that floor at once, even across a
    dropped chunk, so a finished chunk's blocks need not wait for the next
    hand-out.  A chunk handed out below the last hand-out, or below the
    floor already announced, drops the floor for the rest of the run, and
    only the combiner's sequential rule releases blocks from then on; that
    chunk's blocks at keys already passed count as duplicates or `stale`.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    initargs = (ctx, taps_factory, count())
    if backend == "thread":
        pool = ThreadPoolExecutor(workers, initializer=_init_worker, initargs=initargs)
    elif backend == "process":
        import multiprocessing  # here, not at the top: both add to every import's set-up
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _init_worker, initargs)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    stats = RunStats()
    guaranteed = ctx.plan.chunk.guaranteed_frames
    advance = ctx.plan.chunk.advance_samples
    buffer = ReorderBuffer(block_spacing=ctx.plan.frame_samples)
    ordered: list[DecodedBlock] = []
    slots = threading.Semaphore(workers + _QUEUE_DEPTH)
    lock = threading.Lock()  # held around `commit`, `in_flight` and `stats` updates
    in_flight: deque[list] = deque()  # [first sample, blocks or None] per hand-out, oldest first
    last_out = None
    ascending = True

    def commit() -> None:
        """Hand the finished chunks at the front to the combiner in hand-out
        order, after moving the floor; holds `lock`."""
        blocks: list[DecodedBlock] = []
        while in_flight and in_flight[0][1] is not None:
            blocks += in_flight.popleft()[1]
        buffer.floor = (in_flight[0][0] if in_flight else last_out + advance) if ascending else -1
        ordered.extend(buffer.submit_group(blocks))

    def finished(entry: list, future) -> None:
        slots.release()
        with lock:
            if (exc := future.exception()) is None:
                entry[1], result, elapsed = future.result()
                stats.absorb(result, elapsed, guaranteed)
            else:  # a bad chunk is a counted event, never a stalled stream
                entry[1] = []
                stats.chunks_in += 1
                stats.chunk_errors += 1
                stats.chunk_error_types[type(exc).__name__] += 1
            commit()

    with pool:
        for chunk in chunks:
            slots.acquire()
            first = chunk.first_sample_number
            entry = [first, None]
            with lock:
                ascending = ascending and (last_out is None or first >= max(last_out, buffer.floor))
                last_out = first
                in_flight.append(entry)
                commit()
            pool.submit(_run_chunk, chunk).add_done_callback(partial(finished, entry))
    ordered.extend(buffer.flush())

    stats.combiner = buffer.stats
    stats.decode_failures = sum(1 for b in ordered if b.failed)
    return PipelineResult(blocks=ordered, stats=stats)


def run_pipeline_processes(
    chunks: list[ChunkRecord], plan: Numerology, workers: int
) -> tuple[list[DecodedBlock], list[float]]:
    """`run_pipeline` on the process backend, as `(blocks, chunk_seconds)`:
    the shape the benchmark harness (`perfbench/harness.py`) calls."""
    result = run_pipeline(chunks, ReceiverContext.build(plan), workers, backend="process")
    return result.blocks, result.stats.chunk_seconds


# -- benchmark harness ----------------------------------------------------------


_STAGES = ("resample", "timing", "phase", "framesync", "softbits", "fec")


@dataclass
class BenchReport:
    """One `bench` sweep: the machine, the corpus, and a row per backend and
    worker count."""

    machine: dict
    corpus: dict
    rows: list[dict]

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)


def default_workers() -> int:
    """Leave two cores for the OS plus input/output handling."""
    return max(1, (os.cpu_count() or 2) - 2)


def make_bench_corpus(ctx: ReceiverContext, n_chunks: int, seed: int = 0) -> list[ChunkRecord]:
    """Precompute `n_chunks` SC8 wire chunks at Es/N0 12 dB, received as on
    every other path, for as-fast-as-consumed feeding."""
    from .channel import ChannelConfig, apply as chan_apply
    from .modem import generate_stream

    plan = ctx.plan
    need = (n_chunks - 1) * plan.chunk.advance_samples + plan.chunk.chunk_samples
    n_frames = need // plan.frame_samples + 2
    stream = generate_stream(plan.profile, ctx.codec, n_frames, seed=seed)
    rx = chan_apply(
        stream.samples,
        ChannelConfig.for_profile(plan.profile, esn0_db=12.0, seed=seed + 1),
    )
    chunks, _ = receive_chunks(rx[:need], plan, DEFAULT_FULL_SCALE)
    return chunks


def bench(
    ctx: ReceiverContext,
    workers_list: list[int],
    n_chunks: int = 8,
    seed: int = 0,
    seconds: float | None = None,
) -> BenchReport:
    """Throughput sweep over worker counts, on the thread backend and then on
    the process backend, on a precomputed in-memory corpus.

    With `seconds` set, the corpus is cycled until that much wall time has
    elapsed per sweep point; otherwise each point runs one pass.  A row's
    `stage_ms` is each stage's time summed over every pass, per chunk run;
    `pass_samples_per_second` holds the quartiles of the passes' own input
    rates, the spread one row's throughput carries.
    """
    import platform

    corpus = make_bench_corpus(ctx, n_chunks, seed=seed)
    geometry = ctx.plan.chunk
    rows = []
    for backend in ("thread", "process"):
        for workers in workers_list:
            chunk_times: list[float] = []
            stage_seconds: Counter = Counter()
            pass_ends: list[float] = []  # seconds since t0
            t0 = time.perf_counter()
            while True:
                result = run_pipeline(corpus, ctx, workers=workers, backend=backend)
                chunk_times.extend(result.stats.chunk_seconds)
                stage_seconds.update(result.stats.stage_seconds)
                pass_ends.append(time.perf_counter() - t0)
                if seconds is None or pass_ends[-1] >= seconds:
                    break
            elapsed, passes = pass_ends[-1], len(pass_ends)
            done = passes * len(corpus)
            ms = np.array(chunk_times or [0.0]) * 1e3
            per_pass = len(corpus) * geometry.advance_samples / np.diff(pass_ends, prepend=0.0)
            p25, p50, p75 = np.percentile(per_pass, [25, 50, 75]).tolist()
            rows.append({
                "backend": backend,
                "workers": workers,
                "passes": passes,
                "chunks": done,
                "input_samples_per_second": done * geometry.advance_samples / elapsed,
                "pass_samples_per_second": {"p25": p25, "p50": p50, "p75": p75},
                "chunk_ms": {"mean": ms.mean(), "p90": np.percentile(ms, 90), "max": ms.max()},
                "stage_ms": {stage: stage_seconds[stage] * 1e3 / done for stage in _STAGES},
            })
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    machine = {
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ[name] for name in blas if name in os.environ},
    }
    corpus_block = {
        "profile": ctx.plan.profile.name,
        "esn0_db": 12.0,  # as `make_bench_corpus` draws it
        "seed": seed,
        "chunks": n_chunks,
        "chunk_samples": geometry.chunk_samples,
        "advance_samples": geometry.advance_samples,
    }
    return BenchReport(machine=machine, corpus=corpus_block, rows=rows)
