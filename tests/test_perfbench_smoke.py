"""The benchmark harness still runs against the receiver.

`perfbench/` calls `runtime.run_pipeline` and `runtime.run_pipeline_processes`
and patches `runtime.process_chunk`, `runtime.decode_batch`, `codec.decode`,
`ReorderBuffer.submit_group` and `flush`, `ChunkAssembler.push` and
`distributor.packetize`.  A short traced run of each workload goes through
all of them and through every check, so a receiver change that breaks the
harness fails here first.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, seconds", [("desk-12db", "2"), ("desk-stream", "4")], ids=["desk-12db", "desk-stream"]
)
def test_traced_run_passes_every_check(workload, seconds):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", seconds,
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
