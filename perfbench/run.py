"""Receiver benchmark: one workload at one seed, ending in one line of JSON.

    python3 perfbench/run.py --workload desk-12db --seed 0 --seconds 36 --trace 0

Run it from the repository root: the receiver is imported from `./src`.
With `--trace 0` it reports the end-to-end metrics of the workload; with
`--trace 1` it reports the per-layer metrics of a traced run.  Either way it
scores the decoded bits against the transmitted ones, checks that the two
runners decode bit-identically, and exits non-zero when a check fails.
See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
# One BLAS/OpenMP thread per process: the process runner's workers must not
# start more compute threads than there are cores.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2  # fresh interpreters timed besides the receiver process itself
PROBE_TIMEOUT_S = 20
CHILD_TIMEOUT_S = 120
MIN_COVERAGE = 0.95


def machine_record() -> dict:
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(f"{base}/{entry}/level") as a, open(f"{base}/{entry}/type") as b, \
                    open(f"{base}/{entry}/size") as c:
                caches[f"L{a.read().strip()}{b.read().strip()[0].lower()}"] = c.read().strip()
        except OSError:
            continue
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_per_process": 1,
        # two process workers on one core measure time-slicing, not scaling
        "two_worker_throughput_comparable": nproc >= 2,
    }


def run_child(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run receiver.py in its own session; on timeout the whole group, pool
    workers included, is killed and reaped."""
    cmd = [sys.executable, os.path.join(HERE, "receiver.py"), *args]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += f"\nperfbench: {args[0]} timed out after {timeout:.0f} s"
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def invariance_check(seed: int) -> tuple[bool, str]:
    """Decode a desk-12db corpus on the process runner with 2 workers and on
    the thread runner with 1 worker; the blocks must be bit-identical."""
    from chunksdr.runtime import ReceiverContext
    from harness import closed_pass
    from workloads import WORKLOADS, make_inputs

    w = replace(WORKLOADS["desk-12db"], corpus_chunks=4)
    ctx = ReceiverContext.build(w.profile, servers=w.servers)
    inputs = make_inputs(w, ctx, seed, 0)
    procs = closed_pass(inputs["rx"], ctx, w, inputs["loss_seed"], "process", 2)
    thread = closed_pass(inputs["rx"], ctx, w, inputs["loss_seed"], "thread", 1)
    ok = procs.digest == thread.digest and procs.keys.size > 0
    return ok, f"{procs.keys.size} blocks, process x2 {'==' if ok else '!='} thread x1"


def quantile(xs, q: float) -> float:
    import numpy as np

    return float(np.percentile(xs, q)) if len(xs) else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "chunksdr", "__init__.py")):
        print("perfbench: no receiver source at ./src/chunksdr; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    sys.path.insert(0, src)

    import numpy as np

    from chunksdr.runtime import ReceiverContext
    from workloads import WORKLOADS, geometry, make_inputs, score

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    machine = machine_record()
    phases = [("start", time.perf_counter())]  # harness wall time by phase

    # -- inputs (untimed) ----------------------------------------------------
    ctx = ReceiverContext.build(w.profile, servers=w.servers)
    inputs = make_inputs(w, ctx, args.seed, args.seconds)
    phases.append(("inputs", time.perf_counter()))
    tag = os.path.join(out_dir, f"{w.name}-s{args.seed}-p{os.getpid()}")
    np.save(tag + ".npy", inputs.pop("rx"))
    spec = {
        "src": src, "workload": w.to_dict(), "seconds": args.seconds,
        "trace": bool(args.trace), "input": tag + ".npy", "loss_seed": inputs["loss_seed"],
        "output": tag, "out_dir": out_dir,
    }
    with open(tag + ".spec.json", "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)

    # -- set-up probes and the receiver process (timed) ---------------------
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            probe = run_child(["probe", src, w.profile, str(w.servers)], env, PROBE_TIMEOUT_S)
            if probe.returncode != 0:
                sys.stderr.write(probe.stderr)
                return 1
            setups.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
        phases.append(("set-up probes", time.perf_counter()))
        child = run_child(["run", tag + ".spec.json"], env, CHILD_TIMEOUT_S)
        phases.append(("receiver", time.perf_counter()))
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            print(f"perfbench: receiver process failed with code {child.returncode}",
                  file=sys.stderr)
            return 1
        with open(tag + ".json") as fh:
            result = json.load(fh)
        arrays = dict(np.load(tag + ".npz"))
    finally:
        for ext in (".npy", ".spec.json", ".json", ".npz"):
            if os.path.exists(tag + ext):
                os.remove(tag + ext)
    setups.append(result["setup_s"])

    # -- output checks (untimed) --------------------------------------------
    checks: dict[str, bool] = {}
    notes: list[str] = []
    passes = result["passes"]
    plan = ctx.plan
    info_bits = inputs["info_bits"]
    geo = geometry(plan, passes[0]["samples"], inputs["cut"], info_bits.shape[0])
    due = geo.frame_end(np.arange(geo.n_tx_frames)) / w.rate_sps if w.open_loop else None
    scores = []
    for i, _p in enumerate(passes):
        scores.append(score(geo, info_bits, arrays[f"keys{i}"], arrays["bits0"],
                            arrays["failed0"], arrays[f"emit{i}"], due))
    s0 = scores[0]
    digests = {p["digest"] for p in passes} | set(result.get("digests", ()))
    checks["same blocks on every pass"] = len(digests) == 1
    checks["block keys strictly ascending"] = all(s.keys_ascending for s in scores)
    checks["frames scored"] = s0.scored_frames > 0 and s0.delivered_frames > 0
    checks["delivered blocks bit-exact"] = s0.delivered_bit_errors == 0
    if w.loss_rate == 0:
        checks["no packet loss: BER 0, no lost frame or chunk"] = (
            s0.bit_errors == 0 and s0.delivered_frames == s0.scored_frames
            and s0.failed_chunks == 0 and s0.unmapped_blocks == 0
        )
    phases.append(("scoring", time.perf_counter()))
    if result["threads_after_setup"] >= 0:
        checks["one thread per process after set-up"] = result["threads_after_setup"] == 1
    ok_inv, msg = invariance_check(args.seed)
    phases.append(("invariance", time.perf_counter()))
    checks["runner invariance"] = ok_inv
    notes.append("runner invariance: " + msg)

    failed = 0
    attempted = len(passes)
    if w.open_loop and not args.trace:
        extra = passes[0]["extra"]
        valid = extra["lag_s_max"] <= extra["chunk_period_s"] and extra["backlog_end"] <= 1
        failed += int(not valid)
        notes.append(
            f"open loop: generator lag max {1e3 * extra['lag_s_max']:.2f} ms, "
            f"backlog at end {extra['backlog_end']} chunks ({'valid' if valid else 'INVALID'})"
        )

    # -- metrics -------------------------------------------------------------
    if args.trace:
        counts = result["exact_counts"]
        checks["exact counts repeat"] = all(c == counts[0] for c in counts)
        checks[f"trace coverage >= {MIN_COVERAGE:.0%}"] = result["coverage"] >= MIN_COVERAGE
        notes.append(f"trace coverage {result['coverage']:.4f} of runtime.chunk_ms; "
                     f"{result['passes_plain']} untraced + {result['passes_traced']} traced passes; "
                     f"exact counts {json.dumps(counts[0])}")
        metrics = result["per_layer"]
    else:
        # each pass's percentile, then the median over passes
        lat = [s.latencies_s * 1e3 for s in scores]
        msps = sorted(p["samples"] / p["wall_s"] / 1e6 for p in passes)
        report: dict[str, tuple[float, str]] = {
            "throughput_msps": (float(np.median(msps)), "Msps"),
            "frame_latency_p50_ms": (float(np.median([quantile(x, 50) for x in lat])), "ms"),
            "frame_latency_p99_ms": (float(np.median([quantile(x, 99) for x in lat])), "ms"),
            "frame_delivery_ratio": (1.0 - s0.frame_loss_ratio, "ratio"),
            "bit_correct_ratio": (1.0 - s0.bit_error_ratio, "ratio"),
            "chunk_ok_ratio": (1.0 - s0.chunk_fail_ratio, "ratio"),
            "setup_s": (float(np.median(setups)), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
        notes.append("pass throughput " + ", ".join(f"{x:.4f}" for x in msps) + " Msps")
        n_lat = min(x.size for x in lat)
        notes.append(f"latency samples per pass >= {n_lat} over {len(passes)} passes; "
                     f"p99 has {int(n_lat * 0.01)} samples beyond it")
        if w.open_loop and n_lat < 1000:
            notes.append("WARNING: fewer than 1000 latency samples; p99 is not supported")

    notes.append("harness time " + ", ".join(
        f"{name} {t - t_prev:.1f} s" for (_, t_prev), (name, t) in zip(phases, phases[1:])))

    # -- report --------------------------------------------------------------
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace} "
          f"measured {result['measured_s']:.1f} s in {attempted} pass(es)")
    print("machine " + json.dumps(machine))
    print(f"  start offset {inputs['cut']} samples; {s0.scored_frames} frames scored, "
          f"{s0.delivered_frames} delivered; {s0.expected_chunks} chunks expected, "
          f"{s0.failed_chunks} failed; {s0.unmapped_blocks} blocks unmapped")
    raw = {
        "frame_loss_ratio": s0.frame_loss_ratio,
        "bit_error_ratio": s0.bit_error_ratio,
        "chunk_fail_ratio": s0.chunk_fail_ratio,
    }
    for name, value in raw.items():
        print(f"  {name:<36} {value:.6g} ratio")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  setup samples {', '.join(f'{s:.3f}' for s in setups)} s; "
          f"receiver threads after set-up {result['threads_after_setup']}")
    for note in notes:
        print("  " + note)
    for name, ok in checks.items():
        print(f"  check {'PASS' if ok else 'FAIL'}: {name}")
    correct = all(checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
