"""The min-sum decoder against its reference body.

`_ref_decode` below is `LdpcCodec.decode` as it stood before its dead
check-to-variable array was removed: it gathers each row's messages into a
(B, m, w) array every iteration and scatters the extrinsic messages back
through the row table.  A rewrite of `decode` must return the same bits,
flags and iteration counts on every batch here, converged or not: AWGN
words, and inputs where a rewrite can drift (tied row minima, exact zeros
of either sign, saturated LLRs, checks with no edges).
"""

import numpy as np
import pytest

from chunksdr.demod.softbits import LLR_CLIP
from chunksdr.fec import MAX_ITERATIONS, MIN_SUM_NORM, LdpcCodec, ParityCheckMatrix, get_codec


def _ref_decode(codec, llrs, early_termination=True, max_iterations=MAX_ITERATIONS):
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float32))
    batch, n = llrs.shape
    assert n == codec.n
    ne = codec.n_edges
    v2c = np.empty((batch, ne + 1), dtype=np.float32)
    c2v = np.zeros((batch, ne + 1), dtype=np.float32)
    v2c[:, :ne] = llrs[:, codec.edge_col]
    v2c[:, ne] = np.inf
    out_bits = (llrs < 0).astype(np.uint8)
    done = codec._syndrome_ok(out_bits)
    iterations = 0
    for it in range(max_iterations):
        if done.all():
            break
        active = ~done if early_termination else np.ones(batch, dtype=bool)
        iterations = it + 1
        msgs = v2c[active][:, codec.row_gather]
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
        c2v_active[:, codec.row_gather.ravel()] = new_c2v.reshape(new_c2v.shape[0], -1)
        c2v_active[:, ne] = 0.0
        c2v[active] = c2v_active
        total = llrs[active] + c2v_active[:, codec.col_gather].sum(axis=2)
        v2c[active, :ne] = total[:, codec.edge_col] - c2v_active[:, :ne]
        hard = (total < 0).astype(np.uint8)
        ok_now = codec._syndrome_ok(hard)
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


def _assert_same(codec, llrs, **kwargs):
    bits, ok, iters = codec.decode(llrs, **kwargs)
    ref_bits, ref_ok, ref_iters = _ref_decode(codec, llrs, **kwargs)
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
@pytest.mark.parametrize("max_iterations", [1, 5])
def test_desk_code_short_iteration_cap(early_termination, max_iterations):
    codec = get_codec("ldpc_3060_1530")
    llrs = _awgn_batch(codec, 2.5, seed=3)
    ok, iters = _assert_same(
        codec, llrs, early_termination=early_termination, max_iterations=max_iterations
    )
    assert iters == max_iterations and not ok.all()


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


@pytest.mark.parametrize("early_termination", [True, False])
def test_code_with_empty_rows_matches_reference(early_termination):
    """Checks with no edges, in the middle and last, hold no row segment."""
    toy = get_codec("ldpc_96_48")
    mat = toy.matrix
    empty = np.zeros(0, dtype=np.int64)
    row_cols = mat.row_cols[:10] + [empty] + mat.row_cols[10:] + [empty]
    col_rows = [np.where(rows >= 10, rows + 1, rows) for rows in mat.col_rows]
    codec = LdpcCodec(ParityCheckMatrix(n=mat.n, m=mat.m + 2, col_rows=col_rows, row_cols=row_cols))
    for seed in range(6):
        _assert_same(codec, _awgn_batch(toy, 2.0, seed), early_termination=early_termination)
