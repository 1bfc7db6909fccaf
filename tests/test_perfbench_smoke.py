"""The benchmark harness still runs against the receiver.

`perfbench/` calls `runtime.run_pipeline` and `runtime.run_pipeline_processes`
and patches `runtime.process_chunk`, `runtime.decode_batch`, `codec.decode`,
`ReorderBuffer.submit_group` and `flush`, `ChunkAssembler.push` and
`distributor.packetize`.  A short traced run of each workload goes through
all of them and through every check, so a receiver change that breaks the
harness fails here first.  Short untraced runs at other seeds cover the
timed path on other inputs.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_passes_every_check(workload, seconds, trace, seed="0"):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", seconds,
         "--trace", trace, "--seed", seed],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"] is True


@pytest.mark.parametrize(
    "workload, seconds", [("desk-12db", "2"), ("desk-stream", "4")], ids=["desk-12db", "desk-stream"]
)
def test_traced_run_passes_every_check(workload, seconds):
    _run_passes_every_check(workload, seconds, trace="1")


@pytest.mark.parametrize(
    "workload, seconds, seed",
    [("desk-12db", "3", "5"), ("desk-stream", "4", "1")],
    ids=["desk-12db-seed5", "desk-stream-seed1"],
)
def test_untraced_run_passes_every_check(workload, seconds, seed):
    """The untraced benchmark at seeds other than the traced seed 0: a fault
    that shows only on other inputs fails here, not in a benchmark run."""
    _run_passes_every_check(workload, seconds, trace="0", seed=seed)
