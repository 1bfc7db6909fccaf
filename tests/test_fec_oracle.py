"""The min-sum decoder and the parity checks against their reference bodies.

`_ref_decode` below is `LdpcCodec.decode` as it stood before its dead
check-to-variable array was removed: it gathers each row's messages into a
(B, m, w) array every iteration and scatters the extrinsic messages back
through the row table.  A rewrite of `decode` must return the same bits,
flags and iteration counts on every batch here, converged or not: AWGN
words, and inputs where a rewrite can drift (tied row minima, exact zeros
of either sign, saturated LLRs, checks with no edges).  `decode` drops a
word from the batch once it converges; the reference runs both with that
early termination and without it, and `decode` must match both, so
dropping a word never changes its output.

The row table, the syndrome check and the peeling that `_ref_decode` and
the parity-check tests use live here too, built from the matrix alone, as
the codec computed them before it dropped its padded row table.
"""

import numpy as np
import pytest

from chunksdr.demod.softbits import LLR_CLIP
from chunksdr.fec import MAX_ITERATIONS, MIN_SUM_NORM, LdpcCodec, ParityCheckMatrix, get_codec


def _row_gather(codec):
    """Each row's edges, padded to the largest row weight with the inert
    sentinel edge n_edges.  Edges are numbered in row order."""
    row_cols = codec.matrix.row_cols
    assert np.array_equal(codec.edge_col, np.concatenate(row_cols))
    row_wt = [len(cols) for cols in row_cols]
    table = np.full((len(row_wt), max(row_wt)), sum(row_wt), dtype=np.int64)
    start = 0
    for row, wt in enumerate(row_wt):
        table[row, :wt] = np.arange(start, start + wt)
        start += wt
    return table


def _ref_parities(codec, bits, row_gather):
    """(words, m) check parities, through the padded row table."""
    bits = np.atleast_2d(bits)
    edge_bits = np.concatenate(
        [bits[:, codec.edge_col], np.zeros((bits.shape[0], 1), np.uint8)], axis=1
    )
    return np.bitwise_xor.reduce(edge_bits[:, row_gather], axis=2)


def _ref_syndrome_ok(codec, bits, row_gather):
    """Which words meet every check."""
    return ~_ref_parities(codec, bits, row_gather).any(axis=1)


def _ref_resolves(codec, erased, row_gather):
    """Peeling through the padded row table: a row with exactly one unknown
    bit determines it, until no row does."""
    unknown = np.array(erased, dtype=bool)
    while unknown.any():
        on_edge = np.append(unknown[codec.edge_col], False)[row_gather]  # (m, w)
        rows = np.flatnonzero(np.count_nonzero(on_edge, axis=1) == 1)
        if not rows.size:
            return False
        slots = np.argmax(on_edge[rows], axis=1)
        unknown[codec.edge_col[row_gather[rows, slots]]] = False
    return True


def _ref_decode(codec, llrs, early_termination=True, max_iterations=MAX_ITERATIONS):
    row_gather = _row_gather(codec)
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float32))
    batch, n = llrs.shape
    assert n == codec.n
    ne = codec.n_edges
    v2c = np.empty((batch, ne + 1), dtype=np.float32)
    c2v = np.zeros((batch, ne + 1), dtype=np.float32)
    v2c[:, :ne] = llrs[:, codec.edge_col]
    v2c[:, ne] = np.inf
    out_bits = (llrs < 0).astype(np.uint8)
    done = _ref_syndrome_ok(codec, out_bits, row_gather)
    iterations = 0
    for it in range(max_iterations):
        if done.all():
            break
        active = ~done if early_termination else np.ones(batch, dtype=bool)
        iterations = it + 1
        msgs = v2c[active][:, row_gather]
        mag = np.abs(msgs)
        sgn = np.signbit(msgs)
        row_sign = np.bitwise_xor.reduce(sgn, axis=2)
        min1_idx = np.argmin(mag, axis=2)
        min1 = np.take_along_axis(mag, min1_idx[..., None], axis=2)[..., 0]
        mag2 = mag.copy()
        np.put_along_axis(mag2, min1_idx[..., None], np.inf, axis=2)
        min2 = mag2.min(axis=2)
        edge_is_min = np.arange(mag.shape[2])[None, None, :] == min1_idx[..., None]
        out_mag = np.where(edge_is_min, min2[..., None], min1[..., None])
        out_sign = row_sign[..., None] ^ sgn
        new_c2v = np.where(out_sign, -out_mag, out_mag) * MIN_SUM_NORM
        c2v_active = np.zeros((new_c2v.shape[0], ne + 1), dtype=np.float32)
        c2v_active[:, row_gather.ravel()] = new_c2v.reshape(new_c2v.shape[0], -1)
        c2v_active[:, ne] = 0.0
        c2v[active] = c2v_active
        total = llrs[active] + c2v_active[:, codec.col_gather].sum(axis=2)
        v2c[active, :ne] = total[:, codec.edge_col] - c2v_active[:, :ne]
        hard = (total < 0).astype(np.uint8)
        ok_now = _ref_syndrome_ok(codec, hard, row_gather)
        idx_active = np.nonzero(active)[0]
        first_time = ok_now & ~done[idx_active]
        out_bits[idx_active[first_time]] = hard[first_time]
        done[idx_active[ok_now]] = True
    return out_bits, done, iterations


def _awgn_batch(codec, ebn0_db, seed, words=16):
    """BPSK codewords (bit 0 -> +1) through AWGN at Eb/N0, as float32 LLRs."""
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(1.0 / (2.0 * (codec.k / codec.n) * 10 ** (ebn0_db / 10)))
    code = np.array([codec.encode(rng.integers(0, 2, codec.k, dtype=np.uint8)) for _ in range(words)])
    y = 1.0 - 2.0 * code + sigma * rng.normal(size=code.shape)
    return (2.0 * y / sigma**2).astype(np.float32)


def _assert_same(codec, llrs, early_termination=True):
    bits, ok, iters = codec.decode(llrs)
    ref_bits, ref_ok, ref_iters = _ref_decode(codec, llrs, early_termination)
    np.testing.assert_array_equal(bits, ref_bits)
    np.testing.assert_array_equal(ok, ref_ok)
    assert iters == ref_iters
    return ok, iters


@pytest.mark.parametrize("early_termination", [True, False])
@pytest.mark.parametrize(
    "ebn0_db, seed", [(2.0, 0), (2.5, 1), (4.0, 2)], ids=["2.0dB", "2.5dB", "4.0dB"]
)
def test_desk_code_matches_reference(ebn0_db, seed, early_termination):
    codec = get_codec("ldpc_3060_1530")
    ok, iters = _assert_same(codec, _awgn_batch(codec, ebn0_db, seed), early_termination=early_termination)
    if ebn0_db == 2.0:  # the batch mixes converged words with words failed after 50 iterations
        assert 0 < ok.sum() < ok.size and iters == MAX_ITERATIONS


@pytest.mark.parametrize("early_termination", [True, False])
def test_toy_code_matches_reference_over_many_batches(early_termination):
    codec = get_codec("ldpc_96_48")
    failed = 0
    for seed in range(24):
        llrs = _awgn_batch(codec, (1.0, 3.0, 5.0)[seed % 3], seed)
        ok, _ = _assert_same(codec, llrs * (0.5, 1.0, 2.0)[seed // 8], early_termination=early_termination)
        failed += int((~ok).sum())
    assert failed > 0


def test_single_word_and_already_valid_batch():
    codec = get_codec("ldpc_3060_1530")
    llrs = _awgn_batch(codec, 3.0, seed=4, words=1)[0]
    _assert_same(codec, llrs)
    _, iters = _assert_same(codec, np.full((16, codec.n), 5.0, np.float32))
    assert iters == 0


def _drift_batch(codec, kind: str, seed: int) -> np.ndarray:
    """A batch whose values a rewritten check-node update can mishandle.

    levels3/levels4: magnitudes quantised to 3 or 4 levels, so row minima
    tie; erased: spans of exact 0.0; saturated: most LLRs at +-LLR_CLIP and
    two words wholly at +LLR_CLIP; negzero: scattered -0.0 and 0.0 entries.
    """
    rng = np.random.default_rng(seed)
    llrs = _awgn_batch(codec, 2.5, seed)
    if kind.startswith("levels"):
        levels = np.array([1.0, 2.5, 6.0, 15.0][: int(kind[-1])], np.float32)
        nearest = np.abs(np.abs(llrs)[..., None] - levels).argmin(axis=-1)
        return np.copysign(levels[nearest], llrs)
    if kind == "erased":
        for word in llrs:
            for length in rng.integers(codec.n // 150 + 1, codec.n // 15, size=3):
                start = rng.integers(0, codec.n - length)
                word[start : start + length] = 0.0
        return llrs
    if kind == "saturated":
        llrs = np.clip(40.0 * llrs, -LLR_CLIP, LLR_CLIP).astype(np.float32)
        llrs[-2:] = LLR_CLIP
        return llrs
    assert kind == "negzero"
    spots = rng.random(llrs.shape)
    llrs[spots < 0.05] = -0.0
    llrs[(spots >= 0.05) & (spots < 0.08)] = 0.0
    return llrs


@pytest.mark.parametrize("early_termination", [True, False])
@pytest.mark.parametrize("kind", ["levels3", "levels4", "erased", "saturated", "negzero"])
def test_desk_code_on_inputs_a_rewrite_can_drift(kind, early_termination):
    codec = get_codec("ldpc_3060_1530")
    llrs = _drift_batch(codec, kind, seed=10)
    _, iters = _assert_same(codec, llrs, early_termination=early_termination)
    assert iters > 1


@pytest.mark.parametrize("early_termination", [True, False])
@pytest.mark.parametrize("kind", ["levels3", "levels4", "erased", "saturated", "negzero"])
def test_toy_code_on_inputs_a_rewrite_can_drift(kind, early_termination):
    codec = get_codec("ldpc_96_48")
    for seed in range(8):
        _assert_same(codec, _drift_batch(codec, kind, seed), early_termination=early_termination)


def _empty_row_code():
    """The toy code with an edgeless check in the middle and one last; the
    toy code's codewords are its codewords."""
    toy = get_codec("ldpc_96_48")
    mat = toy.matrix
    empty = np.zeros(0, dtype=np.int64)
    row_cols = mat.row_cols[:10] + [empty] + mat.row_cols[10:] + [empty]
    col_rows = [np.where(rows >= 10, rows + 1, rows) for rows in mat.col_rows]
    return LdpcCodec(ParityCheckMatrix(n=mat.n, m=mat.m + 2, col_rows=col_rows, row_cols=row_cols))


@pytest.mark.parametrize("early_termination", [True, False])
def test_code_with_empty_rows_matches_reference(early_termination):
    """Checks with no edges, in the middle and last, hold no row segment."""
    toy = get_codec("ldpc_96_48")
    codec = _empty_row_code()
    for seed in range(6):
        _assert_same(codec, _awgn_batch(toy, 2.0, seed), early_termination=early_termination)


CODES = {  # each code, and a code whose codewords are its codewords
    "toy": lambda: (get_codec("ldpc_96_48"),) * 2,
    "desk": lambda: (get_codec("ldpc_3060_1530"),) * 2,
    "empty_rows": lambda: (_empty_row_code(), get_codec("ldpc_96_48")),
}


def _mixed_words(codec, encoder, words, seed):
    """Codewords, codewords with one bit flipped, and random words, in a
    seeded random order."""
    rng = np.random.default_rng(seed)
    out = rng.integers(0, 2, (words, codec.n), dtype=np.uint8)
    kind = rng.integers(0, 3, words)
    for i in np.flatnonzero(kind < 2):
        out[i] = encoder.encode(rng.integers(0, 2, encoder.k, dtype=np.uint8))
        if kind[i] == 1:
            out[i, rng.integers(codec.n)] ^= 1
    return out


@pytest.mark.parametrize("words", [0, 1, 16, 63, 64, 65, 130])
@pytest.mark.parametrize("code", sorted(CODES))
def test_syndrome_ok_matches_padded_reference(code, words):
    codec, encoder = CODES[code]()
    bits = _mixed_words(codec, encoder, words, seed=words)
    ref = _ref_syndrome_ok(codec, bits, _row_gather(codec))
    np.testing.assert_array_equal(codec._syndrome_ok(bits), ref)
    np.testing.assert_array_equal(codec._syndrome_ok(bits.astype(bool)), ref)
    for block in (ref[:64], ref[64:128]):  # both outcomes occur in each full-size block
        if block.size >= 16:
            assert block.any() and not block.all()


@pytest.mark.parametrize("code", sorted(CODES))
def test_syndrome_matches_padded_reference(code):
    """m parities per word, 0 on the edgeless rows."""
    codec, encoder = CODES[code]()
    bits = _mixed_words(codec, encoder, 24, seed=7)
    ref = _ref_parities(codec, bits, _row_gather(codec))
    got = np.array([codec.syndrome(word) for word in bits])
    np.testing.assert_array_equal(got, ref)
    assert got.shape == (24, codec.matrix.m) and got.any()


def _erasure_masks(n, seed, count=60):
    """Seeded erasure masks: independent erasures at rates up to 0.6, and
    one to three bursts of up to 30% of the word each."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 2 == 0:
            yield rng.random(n) < rng.uniform(0.0, 0.6)
        else:
            mask = np.zeros(n, bool)
            for length in rng.integers(1, int(0.3 * n), size=rng.integers(1, 4)):
                start = rng.integers(0, n - length + 1)
                mask[start : start + length] = True
            yield mask


@pytest.mark.parametrize("code", sorted(CODES))
def test_resolves_matches_padded_peeling(code):
    codec, _ = CODES[code]()
    row_gather = _row_gather(codec)
    outcomes = []
    for mask in _erasure_masks(codec.n, seed=0):
        got = codec.resolves(mask)
        assert got == _ref_resolves(codec, mask, row_gather), np.flatnonzero(mask)
        outcomes.append(got)
    assert any(outcomes) and not all(outcomes)
