#!/usr/bin/env python3
"""Alternating perfbench pairs between two checkouts.

Pair i runs `perfbench/run.py --workload W --seed i --trace 0` once in each
checkout, at perfbench's own run length, in fresh interpreters, the base
first in even pairs and the change first in odd pairs.  For every
end-to-end metric that BENCHMARK.json declares, it prints each pair's two
values, each side's median and quartiles, how many pairs the change won,
the median's relative move and the metric's bound.  A metric whose base
interquartile range is wider than its bound times the base median is
UNRESOLVED, unless every change run beats every base run: a move inside
that spread cannot be told from noise.  It also prints each
run's pass count and whether every run passed its checks, and for each
failing run its side, workload and seed, the checks it failed and, on a
non-zero exit, its last line of standard error.  For
`peak_rss_mb`, which grows with the pass count, it prints the base runs'
least-squares MB per pass and the change's median offset from that line,
so a move can be told apart as more passes or a larger working set.  It
reads only BENCHMARK.json (from the change checkout) and the output of
perfbench/run.py.

    python3 tools/perf_pairs.py --base ../parent --change . \\
        --workload desk-12db --pairs 10
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np

SIDES = ("base", "change")
_PASSES = re.compile(r"measured [\d.]+ s in (\d+) pass")
_CHECK_FAIL = re.compile(r"^\s*check FAIL: (.*)$", re.MULTILINE)


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One perfbench run: its final JSON line plus the pass count, the
    names of the checks it failed and, on a non-zero exit, its last line of
    standard error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    match = _PASSES.search(proc.stdout)
    record["passes"] = int(match.group(1)) if match else None
    record["exit_code"] = proc.returncode
    record["failed_checks"] = _CHECK_FAIL.findall(proc.stdout)
    if proc.returncode:
        record["error"] = (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return record


def run_pairs(args) -> dict:
    checkouts = {"base": args.base, "change": args.change}
    runs = {w: [] for w in args.workload}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            pair = {}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed=i)
                value = pair[side]["metrics"].get("throughput_msps", {}).get("value")
                print(f"pair {i} {workload} seed {i} {side}: throughput_msps {value} "
                      f"passes {pair[side]['passes']} correct {pair[side]['correct']}",
                      file=sys.stderr, flush=True)
            runs[workload].append(pair)
    return runs


def quartiles(xs) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return float(q1), float(med), float(q3)


def report(runs: dict, end_to_end: list[dict]) -> None:
    for workload, pairs in runs.items():
        print(f"== {workload}: {len(pairs)} pairs")
        for side in SIDES:
            ok = sum(bool(p[side]["correct"]) and p[side]["exit_code"] == 0 for p in pairs)
            passes = [p[side]["passes"] for p in pairs]
            failed = sum(p[side]["failed"] for p in pairs)
            attempted = sum(p[side]["attempted"] for p in pairs)
            print(f"  {side:<6} runs passing every check {ok}/{len(pairs)}; "
                  f"operations failed {failed}/{attempted}; passes {passes}")
        for seed, pair in enumerate(pairs):
            for side in SIDES:
                run = pair[side]
                if run["correct"] and run["exit_code"] == 0:
                    continue
                why = [f"check FAIL: {name}" for name in run["failed_checks"]]
                if run["exit_code"]:
                    why.append(f"exit {run['exit_code']}: {run['error']}")
                print(f"  FAILED {side} {workload} seed {seed}: " + "; ".join(why))
        for metric in end_to_end:
            name, higher = metric["name"], metric["better"] == "higher"
            values = [(p["base"]["metrics"].get(name, {}).get("value"),
                       p["change"]["metrics"].get(name, {}).get("value")) for p in pairs]
            values = [(b, c) for b, c in values if b is not None and c is not None]
            if not values:
                continue
            base, change = (np.array(v, dtype=float) for v in zip(*values))
            wins = int(np.sum(change > base if higher else change < base))
            ties = int(np.sum(change == base))
            bq, cq = quartiles(base), quartiles(change)
            move = (cq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            worse = -move if higher else move
            gain = (cq[1] - bq[1]) * (1 if higher else -1)
            beats_all = change.min() > base.max() if higher else change.max() < base.min()
            if worse > metric["bound"]:
                verdict = "WORSE THAN BOUND"
            elif bq[2] - bq[0] > metric["bound"] * abs(bq[1]) and not beats_all:
                verdict = "UNRESOLVED: base IQR wider than the bound"
            else:
                verdict = "within bound"
            print(f"  {name} ({metric['unit']}, {metric['better']} is better, "
                  f"bound {metric['bound']:g})")
            print("    pairs  " + ", ".join(f"{b:.4g}->{c:.4g}" for b, c in values))
            print(f"    base   median {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]  IQR {bq[2] - bq[0]:.4g}")
            print(f"    change median {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]  IQR {cq[2] - cq[0]:.4g}")
            print(f"    change better {wins}/{len(values)} (ties {ties}); median {move:+.2%}, "
                  f"gain {gain:+.4g} against base IQR {bq[2] - bq[0]:.4g}; {verdict}")
            if name == "peak_rss_mb":
                print("    " + rss_per_pass(pairs, name))


def rss_per_pass(pairs: list[dict], name: str) -> str:
    """The least-squares MB per pass over the base runs, and the change's
    median offset from that line at the change's own pass counts: an RSS
    move that the pass count explains leaves the offset near 0."""
    def points(side: str) -> np.ndarray:  # (runs, 2): passes, value
        pts = [(p[side]["passes"], p[side]["metrics"].get(name, {}).get("value")) for p in pairs]
        return np.array([pt for pt in pts if None not in pt], dtype=float).reshape(-1, 2)

    base, change = points("base"), points("change")
    if np.unique(base[:, 0]).size < 2:
        return "per pass: the base runs' pass counts do not vary, so no line is fitted"
    slope, intercept = np.polyfit(base[:, 0], base[:, 1], 1)
    line = f"per pass: base fit {slope:.3g} MB/pass + {intercept:.4g} MB"
    if not change.size:
        return line
    offset = float(np.median(change[:, 1] - (slope * change[:, 0] + intercept)))
    return f"{line}; change median offset from that line {offset:+.3g} MB"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=".", help="checkout of the change (default: .)")
    ap.add_argument("--workload", action="append", required=True,
                    help="perfbench workload (repeatable)")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    report(run_pairs(args), spec["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
