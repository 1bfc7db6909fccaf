"""Metamorphic relations: how an output must change when its input is
changed in a known way.  A relation needs no reference implementation, so it
checks a rewrite against the code itself.

Decoder codeword symmetry: min-sum only compares magnitudes and multiplies
signs, and every check of a codeword c has even parity, so flipping the
signs of a batch's LLRs by c flips every message by c and leaves every
magnitude as it was.  `decode(llr * (1 - 2c))` must then return the bits of
`decode(llr)` XOR c, the same converged flags and the same iteration count,
for converged and failed words alike.  An LLR of exactly zero is outside
the relation: it decides bit 0 under either sign.
"""

import numpy as np
import pytest

from chunksdr.fec import BATCH_SIZE, get_codec


def _awgn_llrs(codec, ebn0_db, rng):
    """One batch of BPSK all-zero words (bit 0 -> +1) through AWGN at Eb/N0,
    as float32 LLRs."""
    sigma = np.sqrt(1.0 / (2.0 * (codec.k / codec.n) * 10 ** (ebn0_db / 10)))
    y = 1.0 + sigma * rng.normal(size=(BATCH_SIZE, codec.n))
    return (2.0 * y / sigma**2).astype(np.float32)


@pytest.mark.parametrize("ebn0_db", [1.5, 3.0])
@pytest.mark.parametrize("code", ["ldpc_96_48", "ldpc_3060_1530"], ids=["toy", "desk"])
def test_decoder_codeword_symmetry(code, ebn0_db):
    codec = get_codec(code)
    rng = np.random.default_rng(16)
    llrs = _awgn_llrs(codec, ebn0_db, rng)
    assert np.all(llrs != 0)
    words = np.array(
        [codec.encode(rng.integers(0, 2, codec.k, dtype=np.uint8)) for _ in range(BATCH_SIZE)]
    )
    bits, ok, iterations = codec.decode(llrs)
    flipped_bits, flipped_ok, flipped_iterations = codec.decode(np.where(words == 1, -llrs, llrs))
    np.testing.assert_array_equal(flipped_bits, bits ^ words)
    np.testing.assert_array_equal(flipped_ok, ok)
    assert flipped_iterations == iterations
    assert iterations > 1  # the batch exercises the message passing, not just the syndrome
    if ebn0_db == 1.5:  # words that fail after MAX_ITERATIONS are in the relation too
        assert not ok.all()
