#!/usr/bin/env python3
"""Measure codeword bit orders for the desk code (ldpc_3060_1530).

An order with multiplier a sends codeword bit (a * p mod n) at transmit
position p, ahead of the column interleaver and the 8PSK mapper; a = 1 is
the identity order.  For each order this prints, at 12 dB Es/N0, the words
of 30 that decode with a run of 153, 306 or 459 erased symbols (one, two
and three lost desk packets with the filter support) and the most decoder
iterations any of them took; and the words of 150 that decode with no
erasure at 5.5 and 6.0 dB, near the code's threshold.  A word counts as
decoded when it converges to the sent bits and the checks determine every
erased bit, as `fec.decode_batch` requires.  Seeded; under a minute on
two cores.

Run from the repository root:  python3 tools/codeword_order.py
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chunksdr.demod.softbits import llr_map  # noqa: E402
from chunksdr.fec import BATCH_SIZE, get_codec  # noqa: E402
from chunksdr.modem import Constellation8PSK, codeword_order, deinterleave, interleave  # noqa: E402
from chunksdr.numerology import CODEWORD_ORDER_MULTIPLIER  # noqa: E402

MULTIPLIERS = (1, 1013, 341)
HOLES = (153, 306, 459)
HOLE_WORDS = 30
HOLE_ESN0_DB = 12.0
THRESHOLD_WORDS = 150
THRESHOLD_ESN0_DB = (5.5, 6.0)


def decoded(codec, a: int, n_words: int, esn0_db: float, hole: int, seed: int) -> tuple[int, int]:
    """(words decoded, most iterations a batch ran) for `n_words` seeded
    words sent in order `a`, each with `hole` erased symbols at a seeded place."""
    n = codec.n
    order = np.arange(n) * a % n
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, size=(n_words, codec.k), dtype=np.uint8)
    noise_var = 10.0 ** (-esn0_db / 10.0)
    mapper = Constellation8PSK()
    llrs = np.empty((n_words, n), np.float32)
    erased = np.zeros((n_words, n), bool)
    for w, bits in enumerate(info):
        symbols = mapper.map_bits(interleave(codec.encode(bits)[order]))
        noise = rng.normal(scale=np.sqrt(noise_var / 2), size=(symbols.size, 2))
        soft = llr_map(symbols + noise @ [1, 1j], noise_var)
        start = rng.integers(0, symbols.size - hole + 1)
        hit = np.zeros(symbols.size, bool)
        hit[start : start + hole] = True
        soft[hit] = 0.0
        llrs[w, order] = deinterleave(soft.reshape(-1))
        erased[w, order] = deinterleave(np.repeat(hit, 3))
    good, most = 0, 0
    for i in range(0, n_words, BATCH_SIZE):
        out, ok, iterations = codec.decode(llrs[i : i + BATCH_SIZE])
        most = max(most, iterations)
        for w in range(out.shape[0]):
            right = ok[w] and np.array_equal(out[w, : codec.k], info[i + w])
            good += bool(right and codec.resolves(erased[i + w]))
    return good, most


def main() -> None:
    codec = get_codec("ldpc_3060_1530")
    shipped = np.arange(codec.n) * CODEWORD_ORDER_MULTIPLIER % codec.n
    assert np.array_equal(codeword_order(codec.n), shipped)
    t0 = time.perf_counter()
    head = "".join(f"  hole {h:3d} (iters)" for h in HOLES)
    head += "".join(f"  {e:.1f} dB" for e in THRESHOLD_ESN0_DB)
    print(f"{'order':12s}{head}")
    for a in MULTIPLIERS:
        name = "identity" if a == 1 else f"a = {a}" + ("*" if a == CODEWORD_ORDER_MULTIPLIER else "")
        row = ""
        for hole in HOLES:
            good, most = decoded(codec, a, HOLE_WORDS, HOLE_ESN0_DB, hole, seed=hole)
            row += f"  {good:4d}/{HOLE_WORDS} ({most:3d})  "
        for esn0 in THRESHOLD_ESN0_DB:
            good, _ = decoded(codec, a, THRESHOLD_WORDS, esn0, 0, seed=int(esn0 * 10))
            row += f"  {good:3d}/{THRESHOLD_WORDS}"
        print(f"{name:12s}{row}", flush=True)
    print(f"* shipped order (CODEWORD_ORDER_MULTIPLIER); {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
