"""The receiver process: set-up, then the timed passes of one workload.

Runs in a fresh interpreter so that its set-up time and peak memory are the
receiver's own; the load generator's inputs arrive as one `.npy` file.

    python3 receiver.py probe <src> <profile> <servers>   # set-up time only
    python3 receiver.py run <spec.json>                    # measure a workload
"""

import json
import os
import sys
import time


def setup(src: str, profile: str, servers: int):
    """Fresh-interpreter set-up: `import chunksdr` plus `ReceiverContext.build`."""
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import chunksdr  # noqa: F401
    from chunksdr.runtime import ReceiverContext

    ctx = ReceiverContext.build(profile, servers=servers)
    return ctx, time.perf_counter() - t0


def _pct(xs, q):
    import numpy as np

    return float(np.percentile(xs, q)) if len(xs) else 0.0


def measure(spec: dict, ctx) -> dict:
    import numpy as np

    from harness import closed_pass, open_run
    from workloads import Workload

    w = Workload(**spec["workload"])
    rx = np.load(spec["input"])
    start = time.perf_counter()
    deadline = start + spec["seconds"]
    loss_seed = spec["loss_seed"]
    if w.open_loop:
        passes = [open_run(rx, ctx, w, loss_seed)]
    else:
        passes = []
        while True:
            passes.append(closed_pass(rx, ctx, w, loss_seed, w.runner, w.workers))
            left = deadline - time.perf_counter()
            if left <= 0 or (len(passes) >= 2 and left < np.median([p.wall_s for p in passes])):
                break
    return {"passes": passes, "measured_s": time.perf_counter() - start}


def measure_traced(spec: dict, ctx) -> dict:
    """Per-layer run: thread runner with one in-process worker, so that every
    span lands in this process; untraced passes of the same corpus alternate
    with traced ones to give the tracing overhead."""
    import numpy as np

    from harness import closed_pass, open_run
    from tracing import Tracer
    from workloads import Workload

    w = Workload(**spec["workload"])
    rx = np.load(spec["input"])
    plan = ctx.plan
    start = time.perf_counter()
    deadline = start + spec["seconds"]
    loss_seed = spec["loss_seed"]
    tracer = Tracer()

    whole = None
    if w.runner == "process":
        whole = closed_pass(rx, ctx, w, loss_seed, w.runner, w.workers)
    n_trace = (w.trace_chunks - 1) * plan.chunk.advance_samples + plan.chunk.chunk_samples
    rx_trace = rx[:n_trace]
    plain, traced = [], []  # (PassResult, (marks before, marks after)) for traced

    def traced_pass():
        before = tracer.mark()
        with tracer.install(ctx):
            res = closed_pass(rx_trace, ctx, w, loss_seed, "thread", 1)
        traced.append((res, before, tracer.mark()))

    budget = deadline if not w.open_loop else start + 0.35 * spec["seconds"]
    plain.append(closed_pass(rx_trace, ctx, w, loss_seed, "thread", 1))
    traced_pass()
    traced_pass()
    while time.perf_counter() + plain[-1].wall_s + traced[-1][0].wall_s < budget:
        plain.append(closed_pass(rx_trace, ctx, w, loss_seed, "thread", 1))
        traced_pass()

    stream = None
    if w.open_loop:
        left = deadline - time.perf_counter() - 1.0
        n_open = max(int(left * w.rate_sps), plan.chunk.chunk_samples * 2)
        before = tracer.mark()
        with tracer.install(ctx):
            stream = open_run(rx[:n_open], ctx, w, loss_seed)
        stream = (stream, before, tracer.mark())

    out_dir = spec["out_dir"]
    tracer.dump(os.path.join(out_dir, f"trace-{w.name}.jsonl"))
    return per_layer(w, tracer, plain, traced, whole, stream) | {
        "measured_s": time.perf_counter() - start,
        "digests": sorted({p.digest for p in plain} | {t[0].digest for t in traced}),
        "passes": [plain[0]],  # scored against the transmitted bits
    }


def per_layer(w, tracer, plain, traced, whole, stream) -> dict:
    """Per-layer metrics from the spans and boundary counts."""
    import numpy as np

    from tracing import chunk_rows, layer_summary

    def sl(marks_before, marks_after):
        (s0, e0, h0), (s1, e1, h1) = marks_before, marks_after
        return tracer.spans[s0:s1], tracer.events[e0:e1], tracer.hold_s[h0:h1]

    def total(events, name):
        return sum(v for n, v in events if n == name)

    def span_ms(spans, name):
        return 1e3 * sum(t1 - t0 for _i, n, t0, t1, *_ in spans if n == name)

    counts = []  # exact counts per traced pass
    rows = []  # per chunk of every traced run
    for res, b, a in traced + ([stream] if stream else []):
        rows += chunk_rows(tracer, sl(b, a)[0])
    for res, b, a in traced:
        spans, events, _ = sl(b, a)
        iters = [v for n, v in events if n == "fec.iterations"]
        counts.append({
            "fec.calls": len(iters),
            "fec.iterations_total": int(sum(iters)),
            "demod.frames": int(total(events, "frames")),
            "combiner.duplicates": res.combiner.get("duplicates", -1),
            "distributor.wire_bytes": res.wire_bytes,
        })
    lt = layer_summary(rows)

    # Counts come from the first traced pass.  Timings of the distributor,
    # the queue and the combiner come from the run the workload is about:
    # the open-loop stream when there is one.
    res0, b0, a0 = traced[0]
    spans0, events0, holds0 = sl(b0, a0)
    chunks0 = max(res0.chunks, 1)
    iters0 = [v for n, v in events0 if n == "fec.iterations"]
    frames0 = total(events0, "frames")
    if stream is not None:
        main, (mspans, _e, holds) = stream[0], sl(*stream[1:])
    else:
        main, mspans, holds = res0, spans0, holds0
    main_chunks = max(main.chunks, 1)
    if whole is not None:  # process runner: busy from its own chunk times
        busy = sum(whole.chunk_seconds) / (w.workers * whole.wall_s)
    else:
        busy = span_ms(mspans, "process_chunk") / 1e3 / (w.workers * main.wall_s)
    # queue wait: the runner taking the chunk in -> its process_chunk start
    starts = {c: t0 for _i, n, t0, _t1, _p, c, _th in mspans if n == "process_chunk"}
    qw = [1e3 * (starts[c] - main.t0 - t_in) for c, t_in in main.intake.items() if c in starts]
    ipc = 0.0
    if w.runner == "process":  # what pickling sends each way, from array sizes
        ipc = (total(events0, "chunk_bytes") + total(events0, "result_bytes")) / chunks0
    comb = main.combiner
    chunk_ms = lt["chunk_ms"]
    plain_wall = np.median([p.wall_s for p in plain])
    traced_wall = np.median([t[0].wall_s for t in traced])
    m = {
        "distributor.packetize_ms_per_chunk": (span_ms(mspans, "packetize") / main_chunks, "ms"),
        "distributor.assemble_ms_per_chunk": (span_ms(mspans, "push") / main_chunks, "ms"),
        "distributor.wire_bytes": (res0.wire_bytes, "bytes"),
        "distributor.chunks_dropped": (main.chunks_dropped, "count"),
        "runtime.chunk_ms_p50": (_pct(chunk_ms, 50), "ms"),
        "runtime.chunk_ms_p90": (_pct(chunk_ms, 90), "ms"),
        "runtime.worker_busy_ratio": (busy, "ratio"),
        "runtime.queue_wait_ms_p50": (_pct(qw, 50), "ms"),
        "runtime.ipc_bytes_per_chunk": (ipc, "bytes"),
        "demod.resample_ms": (lt["median_ms"]["resample"], "ms"),
        "demod.timing_ms": (lt["median_ms"]["timing"], "ms"),
        "demod.phase_ms": (lt["median_ms"]["phase"], "ms"),
        "demod.framesync_ms": (lt["median_ms"]["framesync"], "ms"),
        "demod.softbits_ms": (lt["median_ms"]["softbits"], "ms"),
        "demod.frames_per_chunk": (frames0 / chunks0, "count"),
        "demod.sync_failures": (total(events0, "sync_failed"), "count"),
        "demod.extra_frames": (total(events0, "extra_frames"), "count"),
        "fec.decode_ms_per_chunk": (lt["median_ms"]["fec"], "ms"),
        "fec.calls": (len(iters0), "count"),
        "fec.useful_word_ratio": (total(events0, "fec.words") / (16 * max(len(iters0), 1)), "ratio"),
        "fec.iterations_mean": (float(np.mean(iters0)) if iters0 else 0.0, "count"),
        "fec.iterations_max": (max(iters0, default=0), "count"),
        "fec.words_failed": (total(events0, "fec.words_failed"), "count"),
        "combiner.submit_ms_total": (span_ms(mspans, "submit_group"), "ms"),
        "combiner.hold_ms_p50": (_pct([1e3 * h for h in holds], 50), "ms"),
        "combiner.duplicates": (comb.get("duplicates", 0), "count"),
        "combiner.gaps": (comb.get("gaps", 0), "count"),
        "combiner.conflicts": (comb.get("conflicts", 0), "count"),
        "combiner.stale": (comb.get("stale", 0), "count"),
        "combiner.overflow_emits": (comb.get("overflow_emits", 0), "count"),
        "load.generator_lag_ms_max": (1e3 * main.extra.get("lag_s_max", 0.0), "ms"),
        "load.backlog_chunks_end": (main.extra.get("backlog_end", 0), "count"),
        "trace.overhead_ratio": (traced_wall / plain_wall - 1.0, "ratio"),
    }
    return {
        "per_layer": {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()},
        "coverage": lt["coverage"],
        "exact_counts": counts,
        "passes_plain": len(plain),
        "passes_traced": len(traced),
    }


def _peak_rss_kib() -> int:
    """This process's own high-water RSS.  `ru_maxrss` of an exec'd child can
    carry its parent's peak, so read the kernel's VmHWM where there is one."""
    import resource

    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    mode = sys.argv[1]
    if mode == "probe":
        _ctx, setup_s = setup(sys.argv[2], sys.argv[3], int(sys.argv[4]))
        print(json.dumps({"setup_s": setup_s}))
        return 0
    with open(sys.argv[2]) as fh:
        spec = json.load(fh)
    wl = spec["workload"]
    ctx, setup_s = setup(spec["src"], wl["profile"], wl["servers"])
    # with BLAS pinned, nothing has started a thread yet
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else -1
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    result = (measure_traced if spec["trace"] else measure)(spec, ctx)
    passes = result.pop("passes")
    import resource

    import numpy as np

    own = _peak_rss_kib()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    procs = wl["workers"] if wl["runner"] == "process" else 0
    arrays = {}
    meta = []
    for i, p in enumerate(passes):
        arrays[f"keys{i}"] = p.keys
        arrays[f"emit{i}"] = p.emit_s
        if i == 0:
            arrays["bits0"], arrays["failed0"] = p.bits, p.failed
        meta.append({
            "wall_s": p.wall_s, "samples": p.samples, "chunks": p.chunks,
            "chunks_dropped": p.chunks_dropped, "wire_bytes": p.wire_bytes,
            "chunk_seconds": p.chunk_seconds, "combiner": p.combiner,
            "digest": p.digest, "extra": p.extra,
        })
    np.savez(spec["output"] + ".npz", **arrays)
    result.update({
        "setup_s": setup_s,
        "passes": meta,
        # KiB on Linux; forked workers also count the pages they share
        "peak_rss_mb": (own + procs * kids) / 1024.0,
        "threads_after_setup": threads,
    })
    with open(spec["output"] + ".json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
