"""Drives the receiver through its public entry points.

Closed loop: `packetize` -> `InProcessTransport` -> `subscribe_and_assemble`
-> runner -> combiner, as fast as the receiver consumes.  Open loop: packets
are released on a fixed schedule by a generator thread and assembled with
`ChunkAssembler.push` as they arrive.  Every runner call goes through
`run_chunks`, the one adapter over both runners.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import chunksdr.distributor as distributor
import chunksdr.runtime as runtime
from chunksdr.combiner import ReorderBuffer
from chunksdr.distributor import ChunkAssembler, InProcessTransport, subscribe_and_assemble

from workloads import FULL_SCALE, blocks_digest

OPEN_LOOP_LEAD_S = 0.05  # schedule origin, after the generator thread has started


def run_chunks(chunks, ctx, runner: str, workers: int):
    """The benchmark's single call site for the receiver's runners.

    Returns the combiner's ordered blocks and each chunk's service seconds.
    """
    if runner == "thread":
        result = runtime.run_pipeline(chunks, ctx, workers=workers)
        return result.blocks, list(result.stats.chunk_seconds)
    if runner == "process":
        blocks, seconds = runtime.run_pipeline_processes(list(chunks), ctx.plan, workers)
        return blocks, list(seconds)
    raise ValueError(f"unknown runner {runner!r}")


class OutputProbe:
    """Stamps each block as the combiner emits it and keeps the buffer's
    counters.  One clock read per combiner call: the benchmark's output tap,
    present in traced and untraced runs alike."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.emitted: list[tuple[object, float]] = []
        self.combiner_stats = None
        self.started: list[int] = []  # one entry per process_chunk call begun

    @contextlib.contextmanager
    def install(self):
        submit, flush, process = ReorderBuffer.submit_group, ReorderBuffer.flush, runtime.process_chunk
        probe = self

        def submit_group(buf, blocks):
            out = submit(buf, blocks)
            probe._stamp(out)
            return out

        def flush_all(buf):
            out = flush(buf)
            probe._stamp(out)
            probe.combiner_stats = buf.stats
            return out

        def process_chunk(*args, **kwargs):
            probe.started.append(1)
            return process(*args, **kwargs)

        ReorderBuffer.submit_group, ReorderBuffer.flush = submit_group, flush_all
        runtime.process_chunk = process_chunk
        try:
            yield self
        finally:
            ReorderBuffer.submit_group, ReorderBuffer.flush = submit, flush
            runtime.process_chunk = process

    def _stamp(self, blocks) -> None:
        t = time.perf_counter() - self.t0
        self.emitted.extend((b, t) for b in blocks)


@dataclass
class PassResult:
    t0: float  # perf_counter origin of the pass's relative times
    wall_s: float
    samples: int
    chunks: int
    chunks_dropped: int
    wire_bytes: int
    chunk_seconds: list
    keys: np.ndarray
    bits: np.ndarray
    failed: np.ndarray
    emit_s: np.ndarray
    combiner: dict
    digest: str
    intake: dict = field(default_factory=dict)  # chunk first sample -> intake time
    extra: dict = field(default_factory=dict)


def _finish(probe: OutputProbe, blocks, wall, samples, n_chunks, dropped, wire, chunk_s, intake):
    if len(probe.emitted) != len(blocks) or any(
        a is not b for (a, _), b in zip(probe.emitted, blocks)
    ):
        raise RuntimeError("combiner output tap disagrees with the runner's result")
    keys = np.array([b.start_sample_number for b in blocks], dtype=np.int64)
    bits = np.array([b.info_bits for b in blocks], dtype=np.uint8).reshape(len(blocks), -1)
    failed = np.array([b.failed for b in blocks], dtype=bool)
    st = probe.combiner_stats
    return PassResult(
        t0=probe.t0, wall_s=wall, samples=samples, chunks=n_chunks, chunks_dropped=dropped,
        wire_bytes=wire, chunk_seconds=chunk_s, keys=keys, bits=bits, failed=failed,
        emit_s=np.array([t for _, t in probe.emitted]),
        combiner=dict(st.__dict__) if st is not None else {},
        digest=blocks_digest(keys, bits, failed), intake=intake,
    )


def _stamped(chunks, intake: dict, t0: float):
    for ch in chunks:
        intake[ch.first_sample_number] = time.perf_counter() - t0
        yield ch


def closed_pass(rx, ctx, w, loss_seed: int, runner: str, workers: int) -> PassResult:
    """One as-fast-as-consumed pass over a precomputed receive buffer."""
    plan = ctx.plan
    t0 = time.perf_counter()
    probe = OutputProbe(t0)
    intake: dict = {}
    with probe.install():
        packed = distributor.packetize(rx, plan, full_scale=FULL_SCALE)
        transport = InProcessTransport(plan, loss_rate=w.loss_rate, seed=loss_seed)
        for pkt in packed.packets:
            transport.send(pkt)
        chunks, dropped = [], 0
        for server in range(plan.distribution.num_servers):
            got, stats = subscribe_and_assemble(
                transport.drain(server), plan, server, full_scale=FULL_SCALE
            )
            chunks.extend(got)
            dropped += stats.chunks_dropped
        chunks.sort(key=lambda c: c.first_sample_number)
        blocks, chunk_s = run_chunks(_stamped(chunks, intake, t0), ctx, runner, workers)
    wall = time.perf_counter() - t0
    spp = plan.packet.samples_per_packet
    wire = sum(len(p.payload) + distributor.PACKET_HEADER.size for p in packed.packets)
    return _finish(probe, blocks, wall, len(packed.packets) * spp, len(chunks), dropped,
                   wire, chunk_s, intake)


def open_run(rx, ctx, w, loss_seed: int) -> PassResult:
    """Release packets on a fixed schedule into the thread runner.

    Sample n is due at t0 + (n + 1) / rate; a packet is sent when its last
    sample is due.  Times in the result are relative to t0.
    """
    plan = ctx.plan
    spp = plan.packet.samples_per_packet
    n_packets = rx.size // spp
    rate = w.rate_sps
    transport = InProcessTransport(plan, loss_rate=w.loss_rate, seed=loss_seed)
    servers = plan.distribution.num_servers
    assemblers = [ChunkAssembler(plan, s, FULL_SCALE) for s in range(servers)]
    ready: queue.Queue = queue.Queue()
    t0 = time.perf_counter() + OPEN_LOOP_LEAD_S
    probe = OutputProbe(t0)
    load = {"lag_s_max": 0.0, "backlog_end": 0, "assembled": 0, "wire_bytes": 0}
    intake: dict = {}

    def generator() -> None:
        lag = 0.0
        try:
            for i in range(n_packets):
                due = t0 + (i + 1) * spp / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lag = max(lag, time.perf_counter() - due)
                packed = distributor.packetize(
                    rx[i * spp : (i + 1) * spp], plan, first_packet_number=i,
                    full_scale=FULL_SCALE,
                )
                for pkt in packed.packets:
                    load["wire_bytes"] += len(pkt.payload) + distributor.PACKET_HEADER.size
                    transport.send(pkt)
                for server, asm in enumerate(assemblers):
                    for pkt in transport.drain(server):
                        for chunk in asm.push(pkt):
                            load["assembled"] += 1
                            ready.put(chunk)
            load["lag_s_max"] = lag
            load["backlog_end"] = load["assembled"] - len(probe.started)
            for asm in assemblers:
                for chunk in asm.flush():
                    load["assembled"] += 1
                    ready.put(chunk)
        finally:
            ready.put(None)  # the runner always sees the end of the stream

    def arrivals():
        while (chunk := ready.get()) is not None:
            yield chunk

    feeder = threading.Thread(target=generator, name="load-generator")
    with probe.install():
        feeder.start()
        try:
            # only the thread runner takes chunks as they arrive
            blocks, chunk_s = run_chunks(_stamped(arrivals(), intake, t0), ctx, "thread", w.workers)
        finally:
            feeder.join()
    wall = probe.emitted[-1][1] if probe.emitted else time.perf_counter() - t0
    dropped = sum(a.stats.chunks_dropped for a in assemblers)
    result = _finish(probe, blocks, wall, n_packets * spp, load["assembled"], dropped,
                     load["wire_bytes"], chunk_s, intake)
    result.extra = {"lag_s_max": load["lag_s_max"], "backlog_end": load["backlog_end"],
                    "chunk_period_s": plan.chunk.advance_samples / rate}
    return result
