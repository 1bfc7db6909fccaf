"""FEC: alist loading, encoder, min-sum decoder, batch contract."""

import pickle
from itertools import combinations

import numpy as np
import pytest

from chunksdr.demod.softbits import SoftFrame
from chunksdr.errors import DimensionMismatch, LengthMismatch, ParseError
from chunksdr.fec import (
    BATCH_SIZE,
    DecodedBlock,
    LdpcCodec,
    PassthroughCodec,
    decode_batch,
    get_codec,
    load_matrix,
)
from importlib import resources


@pytest.fixture(scope="module")
def toy96():
    return get_codec("ldpc_96_48")


@pytest.fixture(scope="module")
def desk_code():
    return get_codec("ldpc_3060_1530")


def _alist_path(name):
    return str(resources.files("chunksdr.data").joinpath(f"{name}.alist"))


def _replace(line_no, index, token):
    def edit(lines):
        toks = lines[line_no - 1].split()
        toks[index] = token
        lines[line_no - 1] = " ".join(toks)
    return edit


def _drop_last(line_no):
    def edit(lines):
        lines[line_no - 1] = " ".join(lines[line_no - 1].split()[:-1])
    return edit


def _insert_blank(before_line_no):
    return lambda lines: lines.insert(before_line_no - 1, "")


def _truncate(n_lines):
    def edit(lines):
        del lines[n_lines:]
    return edit


# Edits to the toy alist (lines 1-4 header, 5-100 columns, 101-148 rows),
# applied in order, with the error class and the line a ParseError reports.
_MALFORMED = {
    "short_header": ([_drop_last(1)], ParseError, 1),
    "short_weight_list": ([_drop_last(3)], ParseError, 3),
    "short_row_weight_list": ([_drop_last(4)], ParseError, 4),
    "short_column_line": ([_drop_last(10)], ParseError, 10),
    "short_row_line": ([_drop_last(130)], ParseError, 130),
    "non_integer_token": ([_replace(20, 1, "x")], ParseError, 20),
    "float_token": ([_replace(121, 0, "7.0")], ParseError, 121),
    "non_integer_header": ([_replace(2, 0, "3a")], ParseError, 2),
    "column_index_past_m": ([_replace(5, 0, "49")], ParseError, 5),
    "row_index_past_n": ([_replace(111, 2, "97")], ParseError, 111),
    "column_weight_mismatch": ([_replace(7, 1, "0")], ParseError, 7),
    "declared_max_beyond_int64": ([_replace(2, 0, "9" * 20)], ParseError, 5),
    "column_weight_above_declared_max": ([_replace(2, 0, "2")], DimensionMismatch, None),
    "row_weight_above_declared_max": ([_replace(2, 1, "5")], DimensionMismatch, None),
    "empty_column": ([_replace(3, 4, "0")], ParseError, 3),
    "lists_disagree": ([_replace(101, 0, "36")], DimensionMismatch, None),
    "blank_lines_counted": (
        [_replace(5, 0, "49"), _insert_blank(2), _insert_blank(2)], ParseError, 7),
    "earliest_line_wins": (
        [_replace(30, 0, "49"), _replace(60, 0, "x"), _drop_last(120)], ParseError, 30),
    "count_error_before_invalid_column": (
        [_drop_last(40), _replace(41, 0, "49")], ParseError, 40),
    "truncated_in_columns": ([_truncate(20)], ParseError, 20),
    "truncated_in_rows": ([_truncate(147)], ParseError, 147),
    "truncated_at_bad_token": ([_replace(147, 0, "z"), _truncate(147)], ParseError, 147),
}


class TestLoadMatrix:
    def test_toy_dimensions(self):
        mat = load_matrix(_alist_path("ldpc_96_48"))
        assert mat.n == 96 and mat.m == 48
        assert mat.n - mat.m == 48

    def test_every_column_nonzero(self):
        mat = load_matrix(_alist_path("ldpc_3060_1530"))
        assert all(rows.size > 0 for rows in mat.col_rows)

    def test_truncated_file(self, tmp_path):
        text = resources.files("chunksdr.data").joinpath("ldpc_96_48.alist").read_text()
        p = tmp_path / "trunc.alist"
        p.write_text("\n".join(text.splitlines()[:20]))
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_empty_column_rejected(self, tmp_path):
        p = tmp_path / "bad.alist"
        p.write_text("2 2\n1 1\n1 0\n1 1\n1\n0\n1\n2\n")
        with pytest.raises((ParseError, DimensionMismatch)):
            load_matrix(p)

    @pytest.mark.parametrize("edits, exc_type, line", _MALFORMED.values(), ids=_MALFORMED)
    def test_malformed_file_error(self, edits, exc_type, line, tmp_path):
        """The error class, and for ParseError the 1-based line it reports."""
        text = resources.files("chunksdr.data").joinpath("ldpc_96_48.alist").read_text()
        lines = text.splitlines()
        for edit in edits:
            edit(lines)
        p = tmp_path / "bad.alist"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(exc_type) as info:
            load_matrix(p)
        assert type(info.value) is exc_type
        if exc_type is ParseError:
            assert info.value.line == line

    def test_trailing_lines_ignored(self, tmp_path):
        """Lines after the last row list are not read."""
        text = resources.files("chunksdr.data").joinpath("ldpc_96_48.alist").read_text()
        p = tmp_path / "tail.alist"
        p.write_text(text + "\n\nnot part of the matrix 1.5\n")
        got, want = load_matrix(p), load_matrix(_alist_path("ldpc_96_48"))
        assert (got.n, got.m) == (want.n, want.m)
        for a, b in zip(got.col_rows + got.row_cols, want.col_rows + want.row_cols):
            np.testing.assert_array_equal(a, b)

    def test_girth_at_least_six(self):
        """No two columns share two rows (the generator's girth check)."""
        for name in ("ldpc_96_48", "ldpc_3060_1530"):
            mat = load_matrix(_alist_path(name))
            seen = set()
            for rows in mat.col_rows:
                for pair in combinations(sorted(rows.tolist()), 2):
                    assert pair not in seen, f"4-cycle in {name}"
                    seen.add(pair)


class TestEncoder:
    def test_all_zero_info(self, toy96, desk_code):
        for codec in (toy96, desk_code):
            cw = codec.encode(np.zeros(codec.k, np.uint8))
            assert not cw.any()

    @pytest.mark.parametrize("name", ["ldpc_96_48", "ldpc_3060_1530"])
    def test_zero_syndrome(self, name):
        codec = get_codec(name)
        rng = np.random.default_rng(1)
        for _ in range(20):
            cw = codec.encode(rng.integers(0, 2, codec.k, dtype=np.uint8))
            assert codec.syndrome(cw).max() == 0

    def test_length_mismatch(self, toy96):
        with pytest.raises(LengthMismatch):
            toy96.encode(np.zeros(10, np.uint8))

    def test_passthrough_identity(self):
        codec = PassthroughCodec(12)
        bits = np.arange(12) % 2
        np.testing.assert_array_equal(codec.encode(bits), bits)


def _brute_force_coset_oracle(codec, received_hard, max_weight=3):
    """Smallest error pattern (weight <= max_weight) with zero syndrome."""
    syn = codec.syndrome(received_hard)
    if not syn.any():
        return received_hard.copy()
    syn_int = int("".join(map(str, syn)), 2)
    col_syn = []
    for c in range(codec.n):
        e = np.zeros(codec.n, np.uint8)
        e[c] = 1
        col_syn.append(int("".join(map(str, codec.syndrome(e))), 2))
    for w in range(1, max_weight + 1):
        for combo in combinations(range(codec.n), w):
            acc = 0
            for c in combo:
                acc ^= col_syn[c]
            if acc == syn_int:
                fixed = received_hard.copy()
                for c in combo:
                    fixed[c] ^= 1
                return fixed
    return None


class TestDecoder:
    def test_noiseless_converges_immediately(self, toy96):
        rng = np.random.default_rng(2)
        cw = toy96.encode(rng.integers(0, 2, toy96.k, dtype=np.uint8))
        llrs = (1.0 - 2.0 * cw).astype(np.float32) * 30
        bits, ok, iterations = toy96.decode(llrs)
        assert ok[0] and iterations == 0
        np.testing.assert_array_equal(bits[0], cw)

    def test_three_flips_match_coset_oracle(self, toy96):
        """Weak-LLR triple flips: decoder output equals the brute-force
        minimum-weight coset decoding of the same received word."""
        rng = np.random.default_rng(3)
        info = rng.integers(0, 2, toy96.k, dtype=np.uint8)
        cw = toy96.encode(info)
        received = cw.copy()
        flips = rng.choice(toy96.n, 3, replace=False)
        received[flips] ^= 1
        llrs = (1.0 - 2.0 * received).astype(np.float32) * 4.0
        bits, ok, _ = toy96.decode(llrs)
        oracle = _brute_force_coset_oracle(toy96, received)
        assert oracle is not None
        assert ok[0]
        np.testing.assert_array_equal(bits[0], oracle)
        np.testing.assert_array_equal(bits[0], cw)

    def test_roundtrip_many(self, toy96):
        """decode(encode(x)) == x for strong LLRs, 1000 random words."""
        rng = np.random.default_rng(4)
        infos = rng.integers(0, 2, (1000, toy96.k), dtype=np.uint8)
        cws = np.array([toy96.encode(u) for u in infos])
        llrs = (1.0 - 2.0 * cws).astype(np.float32) * 20
        for i in range(0, 1000, BATCH_SIZE):
            bits, ok, _ = toy96.decode(llrs[i : i + BATCH_SIZE])
            assert ok.all()
            np.testing.assert_array_equal(bits[:, : toy96.k], infos[i : i + BATCH_SIZE])

    def test_batch_invariance(self, toy96):
        """Decoding words individually equals decoding them in one batch."""
        rng = np.random.default_rng(6)
        words = []
        for _ in range(BATCH_SIZE):
            cw = toy96.encode(rng.integers(0, 2, toy96.k, dtype=np.uint8))
            y = (1.0 - 2.0 * cw.astype(np.float32)) + rng.normal(scale=0.6, size=toy96.n)
            words.append((2.0 * y / 0.36).astype(np.float32))
        llrs = np.stack(words)
        batch_bits, batch_ok, _ = toy96.decode(llrs)
        for i in range(BATCH_SIZE):
            bits, ok, _ = toy96.decode(llrs[i : i + 1])
            np.testing.assert_array_equal(bits[0], batch_bits[i])
            assert ok[0] == batch_ok[i]

    def test_wrong_length_rejected(self, toy96):
        with pytest.raises(LengthMismatch):
            toy96.decode(np.zeros(95, np.float32))


class TestDecodeBatch:
    def _frame(self, codec, seed, start):
        rng = np.random.default_rng(seed)
        info = rng.integers(0, 2, codec.k, dtype=np.uint8)
        cw = codec.encode(info)
        llrs = (1.0 - 2.0 * cw).astype(np.float32) * 15
        return SoftFrame(start_sample_number=start, llrs=llrs), info

    def test_single_frame_padded_to_sixteen(self, toy96):
        """1 real + 15 all-zero pads in, exactly 1 block out."""
        frame, info = self._frame(toy96, 7, start=1680)
        blocks = decode_batch([frame], toy96)
        assert len(blocks) == 1
        assert blocks[0].start_sample_number == 1680
        assert not blocks[0].failed
        np.testing.assert_array_equal(blocks[0].info_bits, info)

    def test_full_batch(self, toy96):
        frames, infos = zip(*(self._frame(toy96, 100 + i, i * 96) for i in range(16)))
        blocks = decode_batch(list(frames), toy96)
        assert len(blocks) == 16
        for block, info in zip(blocks, infos):
            np.testing.assert_array_equal(block.info_bits, info)

    def test_failure_flagged_not_dropped(self, toy96):
        rng = np.random.default_rng(8)
        garbage = SoftFrame(
            start_sample_number=0,
            llrs=rng.normal(scale=2.0, size=toy96.n).astype(np.float32),
        )
        blocks = decode_batch([garbage], toy96)
        assert len(blocks) == 1
        assert blocks[0].failed

    def test_batch_size_limits(self, toy96):
        frame, _ = self._frame(toy96, 9, 0)
        with pytest.raises(LengthMismatch):
            decode_batch([frame] * 17, toy96)
        with pytest.raises(LengthMismatch):
            decode_batch([], toy96)


class TestErasedBits:
    """Words with erased LLRs (a lost packet's symbols) are emitted only
    when the code determines the erased bits."""

    def test_peeling_resolves_what_a_stopping_set_does_not(self, toy96, desk_code):
        rng = np.random.default_rng(10)
        for code in (toy96, desk_code):
            assert code.resolves(np.zeros(code.n, bool))
            single = np.zeros(code.n, bool)
            single[rng.integers(code.n)] = True
            assert code.resolves(single)
            assert not code.resolves(np.ones(code.n, bool))
            # a codeword's support is a stopping set
            cw = code.encode(rng.integers(0, 2, code.k, dtype=np.uint8))
            assert not code.resolves(cw.astype(bool))

    def test_all_erased_word_is_not_a_decode(self, toy96):
        """All-zero LLRs meet the syndrome at iteration 0 as the all-zero
        codeword; with the bits marked erased the word fails."""
        llrs = np.zeros(toy96.n, np.float32)
        assert bool(toy96.decode(llrs[None])[1][0])
        (plain,) = decode_batch([SoftFrame(0, llrs)], toy96)
        (erased,) = decode_batch([SoftFrame(0, llrs, erased=np.ones(toy96.n, bool))], toy96)
        assert not plain.failed and erased.failed

    def test_determined_erasures_decode(self, desk_code):
        rng = np.random.default_rng(11)
        info = rng.integers(0, 2, desk_code.k, dtype=np.uint8)
        llrs = (1.0 - 2.0 * desk_code.encode(info)).astype(np.float32) * 8
        erased = np.zeros(desk_code.n, bool)
        erased[rng.choice(desk_code.n, 30, replace=False)] = True
        assert desk_code.resolves(erased)
        llrs[erased] = 0.0
        (block,) = decode_batch([SoftFrame(0, llrs, erased=erased)], desk_code)
        assert not block.failed
        np.testing.assert_array_equal(block.info_bits, info)

    def test_passthrough_never_determines_an_erased_bit(self):
        code = PassthroughCodec(12)
        erased = np.zeros(12, bool)
        assert code.resolves(erased)
        erased[3] = True
        assert not code.resolves(erased)
        (block,) = decode_batch([SoftFrame(0, np.ones(12, np.float32), erased=erased)], code)
        assert block.failed


@pytest.mark.parametrize(
    "code, method, extra, erase_past_end",
    [
        ("desk_code", "syndrome", 5, False),
        ("desk_code", "syndrome", -1, False),
        ("desk_code", "resolves", -1, False),
        ("desk_code", "resolves", 3, True),
        ("toy96", "syndrome", 1, False),
        ("toy96", "resolves", 2, True),
        ("passthrough", "resolves", -1, False),
        ("passthrough", "resolves", 2, True),
    ],
)
def test_parity_checks_reject_words_not_n_long(request, code, method, extra, erase_past_end):
    """`syndrome` and `resolves` take exactly n bits, as `encode` and
    `decode` do; extra bits are not ignored, however they are set."""
    codec = PassthroughCodec(12) if code == "passthrough" else request.getfixturevalue(code)
    word = np.zeros(codec.n + extra, np.uint8)
    if erase_past_end:
        word[codec.n + 1] = 1
    with pytest.raises(LengthMismatch):
        getattr(codec, method)(word if method == "syndrome" else word.astype(bool))


class TestBlockPickle:
    @pytest.mark.parametrize("n_bits", [0, 1, 13, 1530])
    @pytest.mark.parametrize("failed", [False, True])
    def test_round_trip(self, n_bits, failed):
        bits = np.random.default_rng(n_bits).integers(0, 2, n_bits, dtype=np.uint8)
        back = pickle.loads(pickle.dumps(DecodedBlock(3360, bits, failed)))
        assert (back.start_sample_number, back.failed) == (3360, failed)
        assert back.info_bits.dtype == np.uint8 and back.info_bits.shape == (n_bits,)
        np.testing.assert_array_equal(back.info_bits, bits)

    def test_desk_chunk_blocks_pickle_packed(self, desk_ctx):
        """A desk chunk's 17 blocks cross the process boundary in at most a
        sixth of the bytes their uint8-per-bit fields take."""
        from chunksdr.runtime import make_bench_corpus, process_chunk

        (chunk,) = make_bench_corpus(desk_ctx, 1, seed=0)
        blocks, _, _ = process_chunk(chunk, desk_ctx)
        assert len(blocks) >= 16
        unpacked = pickle.dumps([dict(vars(b)) for b in blocks])
        assert len(pickle.dumps(blocks)) <= len(unpacked) / 6


class TestRegistry:
    def test_unknown_codec(self):
        with pytest.raises(ValueError):
            get_codec("nope")

    def test_payload_binding(self):
        with pytest.raises(DimensionMismatch):
            get_codec("ldpc_96_48", payload_bits=3060)

    def test_custom_alist_path(self, tmp_path):
        src = resources.files("chunksdr.data").joinpath("ldpc_96_48.alist").read_text()
        p = tmp_path / "my.alist"
        p.write_text(src)
        codec = get_codec(str(p))
        assert isinstance(codec, LdpcCodec)
        assert codec.n == 96
