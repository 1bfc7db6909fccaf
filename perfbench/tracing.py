"""In-memory spans around the receiver's public layer functions.

`Tracer.install()` wraps each target as bound where its caller looks it up,
records one span per call (name, start, end, parent, chunk id) plus the
counts that only exist at that boundary, and restores the originals on exit.
Spans stay in memory until `dump()`.  Self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

DEMOD_STAGES = {
    "resample_matched_filter": "resample",
    "track_symbols_two_pass": "timing",
    "track_phase_two_pass": "phase",
    "frame_sync": "framesync",
    "llr_map_deinterleave": "softbits",
}
FEC_SPANS = ("decode_batch", "codec.decode")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, t0, t1, parent, chunk, thread)
        self.events: list[tuple] = []  # (name, value): counts at layer boundaries
        self._ids = itertools.count()
        self._local = threading.local()
        self.hold_s: list[float] = []  # combiner submit -> emit, per block
        self.submitted_at: dict[int, float] = {}

    # -- span recording -------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def span(self, name: str, chunk: int | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        chunk = parent[1] if chunk is None else chunk
        stack.append((sid, chunk))
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent[0], chunk, threading.get_ident()))

    def count(self, name: str, value: float) -> None:
        self.events.append((name, value))

    def wrap(self, name: str, fn, after=None, chunk_of=None):
        tracer = self

        def traced(*args, **kwargs):
            chunk = chunk_of(*args, **kwargs) if chunk_of else None
            with tracer.span(name, chunk):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def install(self, ctx):
        """Wrap every layer target where its caller looks it up; the benchmark
        calls `packetize` through the `chunksdr.distributor` module."""
        import chunksdr.demod as demod
        import chunksdr.distributor as distributor
        import chunksdr.runtime as runtime
        from chunksdr.combiner import ReorderBuffer
        from chunksdr.distributor import ChunkAssembler

        guaranteed = ctx.plan.chunk.guaranteed_frames
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr, new):
            patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, new)

        for fname in DEMOD_STAGES:
            patch(demod, fname, self.wrap(fname, getattr(demod, fname)))

        def after_chunk(out, chunk, *_a, **_k):
            blocks, result, _elapsed = out
            self.count("frames", len(result.frames))
            self.count("sync_failed", int(result.sync_failed))
            self.count("extra_frames", max(0, len(result.frames) - guaranteed))
            self.count("chunk_bytes", chunk.samples.nbytes)
            self.count("result_bytes", sum(b.info_bits.nbytes for b in blocks))

        patch(runtime, "process_chunk", self.wrap(
            "process_chunk", runtime.process_chunk, after=after_chunk,
            chunk_of=lambda chunk, *a, **k: int(chunk.first_sample_number),
        ))

        def after_batch(blocks, frames, *_a, **_k):
            self.count("fec.words", len(frames))
            self.count("fec.words_failed", sum(b.failed for b in blocks))

        patch(runtime, "decode_batch", self.wrap("decode_batch", runtime.decode_batch, after=after_batch))

        def after_decode(out, *_a, **_k):
            self.count("fec.iterations", int(out[2]))

        patch(ctx.codec, "decode", self.wrap("codec.decode", ctx.codec.decode, after=after_decode))

        submit = ReorderBuffer.submit_group
        flush = ReorderBuffer.flush

        def traced_submit(buf, blocks):
            t = time.perf_counter()
            for b in blocks:
                self.submitted_at.setdefault(id(b), t)
            with self.span("submit_group"):
                out = submit(buf, blocks)
            self._emitted(out)
            return out

        def traced_flush(buf):
            with self.span("flush"):
                out = flush(buf)
            self._emitted(out)
            return out

        patch(ReorderBuffer, "submit_group", traced_submit)
        patch(ReorderBuffer, "flush", traced_flush)
        patch(ChunkAssembler, "push", self.wrap("push", ChunkAssembler.push))
        patch(distributor, "packetize", self.wrap("packetize", distributor.packetize))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(patches):
                if old is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, old)

    def _emitted(self, blocks) -> None:
        t = time.perf_counter()
        for b in blocks:
            t_in = self.submitted_at.pop(id(b), None)
            if t_in is not None:
                self.hold_s.append(t - t_in)

    # -- analysis -------------------------------------------------------------

    def mark(self) -> tuple[int, int, int]:
        """Position to slice spans/events/holds from, for per-pass analysis."""
        return len(self.spans), len(self.events), len(self.hold_s)

    def self_times(self, spans) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                children[s[4]].append((s[2], s[3]))
        out = {}
        for sid, _name, t0, t1, *_ in spans:
            covered = 0.0
            end = t0
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, end), min(b, t1)
                if b > a:
                    covered += b - a
                    end = b
            out[sid] = (t1 - t0) - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, chunk, thread in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "chunk": chunk, "thread": thread,
                }) + "\n")


_MISSING = object()


LAYERS = ("resample", "timing", "phase", "framesync", "softbits", "fec")


def chunk_rows(tracer: Tracer, spans) -> list[dict]:
    """One row per chunk of one pass: its service ms and each layer's self ms."""
    selfs = tracer.self_times(spans)
    rows: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(("chunk", *LAYERS), 0.0))
    for sid, name, t0, t1, _p, chunk, _t in spans:
        if name == "process_chunk":
            rows[chunk]["chunk"] += (t1 - t0) * 1e3
        elif name in DEMOD_STAGES:
            rows[chunk][DEMOD_STAGES[name]] += selfs[sid] * 1e3
        elif name in FEC_SPANS:
            rows[chunk]["fec"] += selfs[sid] * 1e3
    return list(rows.values())


def layer_summary(rows: list[dict]) -> dict:
    """Median per-chunk self time of each layer, and the share of chunk
    service time the layers' self times cover."""
    total_chunk = sum(r["chunk"] for r in rows)
    total_layers = sum(r[k] for r in rows for k in LAYERS)
    return {
        "median_ms": {k: float(np.median([r[k] for r in rows])) if rows else 0.0 for k in LAYERS},
        "chunk_ms": [r["chunk"] for r in rows],
        "coverage": total_layers / total_chunk if total_chunk else 0.0,
    }
