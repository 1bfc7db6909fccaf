"""The numpy polyphase resampler, and a receiver import path free of scipy."""

import os
import subprocess
import sys

import numpy as np
import pytest

import chunksdr
from chunksdr.modem import RRC_TAPS, upfirdn


@pytest.mark.parametrize("up, down", [(5, 4), (8, 5)])
@pytest.mark.parametrize("n", [1, 3, 81, 30_000])
@pytest.mark.parametrize("complex_input", [False, True])
def test_matches_scipy(up, down, n, complex_input):
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(n + 10 * up)
    h = rng.normal(size=RRC_TAPS)
    x = rng.normal(size=n)
    if complex_input:
        x = x + 1j * rng.normal(size=n)
    want = signal.upfirdn(h, x, up=up, down=down)
    got = upfirdn(h, x, up=up, down=down)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_rejects_empty_filter():
    with pytest.raises(ValueError):
        upfirdn(np.zeros(0), np.ones(4), up=5, down=4)


def test_receiver_imports_no_scipy():
    """Importing the runtime and building a receiver context loads no scipy."""
    code = (
        "import sys\n"
        "import chunksdr.runtime\n"
        "chunksdr.runtime.ReceiverContext.build('desk')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(chunksdr.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"
