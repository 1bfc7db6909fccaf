"""The shipped preamble table, and a receiver that never imports numpy.random
or, until a process pool is asked for, multiprocessing."""

import dataclasses
import importlib.util
import os
import pathlib
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import chunksdr
from chunksdr.modem import Preamble, _preamble_quadrants
from chunksdr.numerology import load_profile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _drawn(n_symbols, seed):
    """The preamble as drawn before the table shipped."""
    quad = np.random.default_rng(seed).integers(0, 4, size=n_symbols)
    return np.exp(1j * (np.pi / 4 + np.pi / 2 * quad)).astype(np.complex64)


@pytest.mark.parametrize("profile", [load_profile("desk")[0], load_profile("paper")[0]], ids=["desk", "paper"])
def test_shipped_profiles_preamble_unchanged(profile):
    got = Preamble.for_profile(profile).symbols
    assert got.dtype == np.complex64 and got.size == profile.preamble_symbols
    assert got.tobytes() == _drawn(profile.preamble_symbols, profile.preamble_seed).tobytes()


def test_every_table_prefix_is_the_draw():
    """A preamble shorter than the table's row is the row's prefix."""
    for n in range(1, 91):
        np.testing.assert_array_equal(
            _preamble_quadrants(n, 2001), np.random.default_rng(2001).integers(0, 4, size=n)
        )


@pytest.mark.parametrize("overrides", [{"preamble_symbols": 120}], ids=["longer"])
def test_uncovered_seed_or_length_is_drawn(overrides):
    profile = dataclasses.replace(load_profile("desk")[0], **overrides)
    got = Preamble.for_profile(profile).symbols
    assert got.tobytes() == _drawn(profile.preamble_symbols, profile.preamble_seed).tobytes()


def test_shipped_table_matches_generator():
    spec = importlib.util.spec_from_file_location("gen_preamble", ROOT / "tools" / "gen_preamble.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    shipped = resources.files("chunksdr.data").joinpath("preambles.table").read_text()
    assert gen.table_text() == shipped


def test_receiver_imports_no_numpy_random():
    """Importing the runtime, building a receiver context and a loss-free
    transport loads no numpy.random module."""
    code = (
        "import sys\n"
        "import chunksdr.runtime\n"
        "from chunksdr.distributor import InProcessTransport\n"
        "ctx = chunksdr.runtime.ReceiverContext.build('desk')\n"
        "InProcessTransport(ctx.plan)\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    assert _fresh_interpreter(code) == "[]"


def test_runtime_import_loads_no_process_pool():
    """`run_pipeline` imports the process pool only when asked for it."""
    code = (
        "import sys\n"
        "import chunksdr.runtime\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    assert _fresh_interpreter(code) == "[]"


def _fresh_interpreter(code: str) -> str:
    """Run `code` in a new interpreter that imports this checkout; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(chunksdr.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return out.stdout.strip()
