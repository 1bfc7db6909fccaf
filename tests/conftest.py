import numpy as np
import pytest

from chunksdr.modem import Constellation8PSK, generate_stream, pulse_shape
from chunksdr.numerology import load_numerology
from chunksdr.runtime import ReceiverContext


@pytest.fixture(scope="session")
def desk_ctx() -> ReceiverContext:
    return ReceiverContext.build("desk")


@pytest.fixture(scope="session")
def desk_plan(desk_ctx):
    return desk_ctx.plan


@pytest.fixture(scope="session")
def paper_plan():
    return load_numerology("paper", servers=2)


@pytest.fixture(scope="session")
def constellation() -> Constellation8PSK:
    return Constellation8PSK()


@pytest.fixture(scope="session")
def random_symbols(constellation):
    """8PSK symbol generator with a per-test seed."""

    def make(n: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return constellation.points[rng.integers(0, 8, n)]

    return make


@pytest.fixture(scope="session")
def shaped_stream(desk_plan, random_symbols):
    """Pulse-shaped random symbols at the input rate, with ground truth."""

    def make(n_symbols: int, seed: int = 0):
        symbols = random_symbols(n_symbols, seed)
        return symbols, pulse_shape(symbols, desk_plan.profile)

    return make


@pytest.fixture(scope="session")
def desk_stream_16(desk_ctx):
    """A small desk TX stream reused by several tests."""
    return generate_stream(desk_ctx.plan.profile, desk_ctx.codec, 24, seed=42)
