"""Pluggable FEC with the batch-of-16 decoder contract.

Decoders take up to 16 codewords at a time; short batches are padded with
all-zero codewords, and per-codeword early termination stops iterating a
word once its syndrome is zero.  The reference decoder is normalized
min-sum (factor 0.75, 50 iterations max) on alist-loaded sparse matrices.
LLR convention: positive means bit 0.

The decoder keeps one message per edge, edges in row order, so every check
row is a contiguous segment of the edge list; the check-node update is a
few segment reductions (`np.ufunc.reduceat`) per iteration over a fixed set
of scratch arrays, rather than a gather into a table padded to the largest
row weight.  The parity checks run on the same segments: the syndrome
check packs up to 64 words into the bits of one uint64 per column and
XORs each row segment once, and `resolves` peels on per-segment counts.

Every worker builds or inherits a codec, so making one does only what
decoding needs: the alist file is parsed in one numpy call and checked
with array operations, and the edge tables are built without Python
loops.  The systematic encoder (the dense matrix, and a GF(2) inverse
unless the parity part is an accumulator) is built on the first `encode`;
receivers never call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, ParseError
from .demod.softbits import LLR_CLIP, SoftFrame

BATCH_SIZE = 16
MIN_SUM_NORM = 0.75
MAX_ITERATIONS = 50
_BYTES_TO_BITS = np.uint64(0x0102040810204080)  # see `LdpcCodec._syndrome_ok`


@dataclass
class DecodedBlock:
    """Decoder output: info bits keyed by the frame's transmit boundary.

    Pickled with the bits packed eight to a byte (a process worker sends its
    blocks back that way); unpickling restores the uint8-per-bit array.
    """

    start_sample_number: int
    info_bits: np.ndarray  # uint8, one 0/1 per bit
    failed: bool = False

    def __reduce__(self):
        bits = self.info_bits
        packed = np.packbits(bits).tobytes()
        return _unpack_block, (self.start_sample_number, packed, bits.size, self.failed)


def _unpack_block(start_sample_number: int, packed: bytes, n_bits: int, failed: bool):
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=n_bits)
    return DecodedBlock(start_sample_number, bits, failed)


@dataclass
class ParityCheckMatrix:
    n: int
    m: int
    col_rows: list[np.ndarray]  # 0-based row indices per column
    row_cols: list[np.ndarray]  # 0-based column indices per row

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        col_wt = np.fromiter(map(len, self.col_rows), np.int64, count=self.n)
        h[np.concatenate(self.col_rows), np.repeat(np.arange(self.n), col_wt)] = 1
        return h


# byte classes of the alist alphabet; anything else is not part of an integer
_SPACE, _DIGIT, _SIGN = 1, 2, 3
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\n\r\v\f")] = _SPACE
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b"+-")] = _SIGN


def _alist_records(raw: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, ParseError]:
    """The integers of an alist file's non-blank lines, in one numpy parse.

    Returns (values, lines, counts, past_end): the integers of every
    non-blank line before the first line holding a token that is not an
    integer, those lines' 0-based numbers and value counts, and the error a
    reader meets on the line after them (that bad line, or the end of file).
    Lines break where `str.splitlines` breaks them.
    """
    b = np.frombuffer(raw, dtype=np.uint8)
    cls = _BYTE_CLASS[b]
    space = cls == _SPACE
    after_space = np.ones_like(space)  # the byte before is whitespace, or there is none
    after_space[1:] = space[:-1]
    before_digit = np.zeros_like(space)
    before_digit[:-1] = cls[1:] == _DIGIT
    bad = (cls == 0) | ((cls == _SIGN) & ~(after_space & before_digit))
    breaks = np.flatnonzero(
        (b == ord("\n")) | (b == ord("\v")) | (b == ord("\f"))
        | ((b == ord("\r")) & np.append(b[1:] != ord("\n"), True))
    )
    line_start = np.concatenate([[0], breaks + 1])
    if line_start[-1] < b.size:  # a last line without a break
        line_start = np.append(line_start, b.size)
    n_lines = line_start.size - 1
    past_end = ParseError("unexpected end of file", line=n_lines)
    stop = n_lines
    if bad.any():
        first_bad = int(np.argmax(bad))
        stop = int(np.searchsorted(breaks, first_bad))
        past_end = ParseError(f"not an integer: {raw[first_bad:first_bad + 1]!r}", line=stop + 1)
    token_start = np.flatnonzero(~space & after_space)
    per_line = np.diff(np.searchsorted(token_start, line_start[: stop + 1]))
    lines = np.flatnonzero(per_line)
    values = np.zeros(0, dtype=np.int64)
    if lines.size:  # whitespace alone would parse as one 0
        values = np.fromstring(raw[: line_start[stop]], dtype=np.int64, sep=" ")
    return values, lines, per_line[lines], past_end


def load_matrix(path: str | Path) -> ParityCheckMatrix:
    """Parse and validate an alist-format sparse matrix file.

    Tokens are ASCII decimal integers; blank lines are skipped and lines after
    the last row list are not read.  The first bad line read raises
    ParseError with its 1-based number: a wrong value count, a token that is
    not an integer, or an entry list that does not match its weight or points
    past n or m.  Weights above the declared maxima, or column and row lists
    that disagree, raise DimensionMismatch.
    """
    values, lines, counts, past_end = _alist_records(Path(path).read_bytes())
    offsets = np.concatenate([[0], np.cumsum(counts)])

    def record(i: int, expect: int) -> np.ndarray:
        if i >= lines.size:
            raise past_end
        if counts[i] != expect:
            raise ParseError(f"expected {expect} values, got {counts[i]}", line=int(lines[i]) + 1)
        return values[offsets[i] : offsets[i + 1]]

    n, m = record(0, 2).tolist()
    max_col, max_row = record(1, 2).tolist()
    col_wt = record(2, n)
    row_wt = record(3, m)
    if (col_wt <= 0).any():
        raise ParseError("matrix has an empty column", line=3)
    if col_wt.max() > max_col or row_wt.max() > max_row:
        raise DimensionMismatch("declared max weights inconsistent with weight lists")
    # n column lists, then m row lists; the first line at fault raises
    got = counts[4 : 4 + n + m]
    expect = np.where(np.arange(got.size) < n, max_col, max_row)
    miscounted = np.flatnonzero(got != expect)
    well_formed = int(miscounted[0]) if miscounted.size else got.size
    n_cols = min(well_formed, n)
    n_rows = well_formed - n_cols
    start = offsets[4] + n_cols * max_col
    # with no well-formed line the declared width is unchecked (it may pass int64): use 0
    cols = values[offsets[4] : start].reshape(n_cols, max_col if n_cols else 0)
    rows = values[start : start + n_rows * max_row].reshape(n_rows, max_row if n_rows else 0)
    invalid = np.concatenate([
        ((cols > 0).sum(axis=1) != col_wt[:n_cols]) | (cols > m).any(axis=1),
        ((rows > 0).sum(axis=1) != row_wt[:n_rows]) | (rows > n).any(axis=1),
    ])
    if invalid.any():
        i = int(np.argmax(invalid))
        what = f"column {i + 1}" if i < n else f"row {i - n + 1}"
        raise ParseError(f"{what} entries invalid", line=int(lines[4 + i]) + 1)
    if well_formed < n + m:
        record(4 + well_formed, max_col if well_formed < n else max_row)
    col_flat = cols[cols > 0] - 1
    row_flat = rows[rows > 0] - 1
    # cross-check the two adjacency lists as sets of (row, column) edges
    edges_c = _distinct(col_flat * n + np.repeat(np.arange(n), col_wt))
    edges_r = _distinct(np.repeat(np.arange(m), row_wt) * n + row_flat)
    if not np.array_equal(edges_c, edges_r):
        raise DimensionMismatch("column and row adjacency lists disagree")
    return ParityCheckMatrix(
        n=n, m=m, col_rows=_split(col_flat, col_wt), row_cols=_split(row_flat, row_wt)
    )


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values (`np.unique` pays a first-call cost of ~10 ms)."""
    keys = np.sort(keys)
    return keys[np.append(True, keys[1:] != keys[:-1])]


def _split(flat: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of `flat`, one per size."""
    ends = np.cumsum(sizes).tolist()
    return [flat[e - s : e] for s, e in zip(sizes.tolist(), ends)]


class PassthroughCodec:
    """n = k identity code: hard decision on the LLR sign."""

    def __init__(self, n: int):
        self.n = self.k = n

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(info_bits, dtype=np.uint8)
        if bits.size != self.k:
            raise LengthMismatch(f"{bits.size} info bits, expected {self.k}")
        return bits

    def decode(self, llrs: np.ndarray):
        llrs = np.atleast_2d(llrs)
        bits = (llrs < 0).astype(np.uint8)
        return bits, np.ones(llrs.shape[0], dtype=bool), 0

    def resolves(self, erased: np.ndarray) -> bool:
        """No redundancy: an erased bit is never determined."""
        erased = np.asarray(erased, dtype=bool)
        if erased.shape != (self.n,):
            raise LengthMismatch(f"{erased.size} erasure flags, expected {self.n}")
        return not erased.any()


class LdpcCodec:
    """Normalized min-sum decoder plus a systematic encoder."""

    def __init__(self, matrix: ParityCheckMatrix):
        self.matrix = matrix
        self.n = matrix.n
        self.k = matrix.n - matrix.m
        self._build_edges()
        self._encoder: tuple[np.ndarray, np.ndarray | None] | None = None

    def _build_edges(self) -> None:
        """Edges in row order, their row segments, and a padded per-column
        gather table."""
        mat = self.matrix
        row_wt = np.fromiter(map(len, mat.row_cols), np.int64, count=mat.m)
        self.edge_col = np.concatenate(mat.row_cols)
        n_edges = self.edge_col.size
        edges = np.arange(n_edges, dtype=np.int64)
        row_start = np.cumsum(row_wt) - row_wt
        # padded column table; the sentinel edge (index n_edges) is inert
        by_col = np.argsort(self.edge_col, kind="stable")
        col_of = self.edge_col[by_col]
        col_wt = np.bincount(self.edge_col, minlength=mat.n)
        self.col_gather = np.full((mat.n, col_wt.max()), n_edges, dtype=np.int64)
        col_start = np.cumsum(col_wt) - col_wt
        self.col_gather[col_of, edges - col_start[col_of]] = by_col
        # the same table for `decode`'s column sums: padded slots read edge 0
        # and are masked out
        self.col_valid = self.col_gather < n_edges
        self.col_edge = np.where(self.col_valid, self.col_gather, 0)
        self.n_edges = n_edges
        # the rows that have edges, as contiguous segments of the edge list
        self.seg_row = np.flatnonzero(row_wt)
        self.seg_start = row_start[self.seg_row]
        self.edge_seg = np.repeat(np.arange(self.seg_row.size), row_wt[self.seg_row])

    def _build_encoder(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(A, B^-1) for H = [A | B]; B^-1 is None for an accumulator tail,
        which encodes in O(n).  Otherwise B is inverted over GF(2)."""
        mat = self.matrix
        k, m = self.k, mat.m
        dense = mat.to_dense()
        a, b = dense[:, :k], dense[:, k:]
        bidiag = np.tri(m, m, 0, dtype=np.uint8) - np.tri(m, m, -2, dtype=np.uint8)
        if np.array_equal(b, bidiag.astype(np.uint8)):
            return a, None
        return a, _gf2_inverse(b)

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(info_bits, dtype=np.uint8)
        if bits.size != self.k:
            raise LengthMismatch(f"{bits.size} info bits, expected {self.k}")
        if self._encoder is None:  # receivers only decode, so build on demand
            self._encoder = self._build_encoder()
        a, b_inv = self._encoder
        au = (a @ bits) % 2
        if b_inv is None:
            parity = np.bitwise_and(np.cumsum(au), 1).astype(np.uint8)
        else:
            parity = (b_inv @ au) % 2
        return np.concatenate([bits, parity]).astype(np.uint8)

    def syndrome(self, codeword: np.ndarray) -> np.ndarray:
        """The m check parities of one word of n bits; 0 on edgeless rows."""
        bits = np.asarray(codeword, dtype=np.uint8)
        if bits.shape != (self.n,):
            raise LengthMismatch(f"{bits.size} bits, expected {self.n}")
        out = np.zeros(self.matrix.m, dtype=np.uint8)
        out[self.seg_row] = np.bitwise_xor.reduceat(bits[self.edge_col], self.seg_start)
        return out

    def decode(self, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Decode a batch of LLR rows in at most `MAX_ITERATIONS` iterations.

        Returns (codeword bits, converged flags, iterations run).  The output
        for each word is its first syndrome-zero hard decision, and a word
        leaves the batch once it has one.

        Messages are edge-major, (words, edges) in row order, so each check
        row is a contiguous segment and the check-node update is segment
        reductions (`reduceat` over `seg_start`): the row minimum, the
        number of edges at it, the minimum with those edges masked to +inf
        (the first minimum again when it ties) and the sign parity.  A row's
        unique minimum edge gets the second minimum, every other edge the
        first.  Scratch arrays are allocated once per call and shrink with
        the words still iterating.
        """
        llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float32))
        n = llrs.shape[1]
        if n != self.n:
            raise LengthMismatch(f"{n} LLRs per word, expected {self.n}")
        out_bits = (llrs < 0).astype(np.uint8)
        done = self._syndrome_ok(out_bits)
        words = np.flatnonzero(~done)
        if not words.size:
            return out_bits, done, 0
        ne, seg, edge_seg = self.n_edges, self.seg_start, self.edge_seg
        llr_w = llrs[words]
        v2c = llr_w[:, self.edge_col]
        msg_buf = np.empty((words.size, ne), np.float32)
        mag_buf = np.empty((words.size, ne), np.float32)
        sgn_buf, flag_buf = np.empty((2, words.size, ne), bool)
        sum_buf = np.empty((words.size, n), np.float32)
        iterations = 0
        for it in range(MAX_ITERATIONS):
            if not words.size:
                break
            iterations = it + 1
            w = words.size
            mag = np.abs(v2c, out=mag_buf[:w])
            sgn = np.signbit(v2c, out=sgn_buf[:w])
            min1 = np.minimum.reduceat(mag, seg, axis=1)
            parity = np.logical_xor.reduceat(sgn, seg, axis=1)
            msg = msg_buf[:w]
            # `take` fills a C-contiguous `out` in place unless mode is "raise";
            # the indices are in range, so "clip" changes nothing
            np.take(min1, edge_seg, axis=1, out=msg, mode="clip")
            is_min = np.equal(mag, msg, out=flag_buf[:w])
            ties = np.add.reduceat(is_min, seg, axis=1, dtype=np.int32)
            np.copyto(mag, np.inf, where=is_min)
            min2 = np.minimum.reduceat(mag, seg, axis=1)
            np.copyto(min2, min1, where=ties > 1)
            np.copyto(msg, np.take(min2, edge_seg, axis=1, out=mag, mode="clip"), where=is_min)
            # extrinsic sign: the row's parity without the edge's own sign
            out_sgn = np.take(parity, edge_seg, axis=1, out=flag_buf[:w], mode="clip")
            np.not_equal(out_sgn, sgn, out=out_sgn)
            msg *= MIN_SUM_NORM
            np.negative(msg, out=msg, where=out_sgn)
            # variable nodes: like numpy's `sum` over the padded slots, start
            # from +0.0, so the bits match, signed zeros too
            total = sum_buf[:w]
            total.fill(0.0)
            for edge, valid in zip(self.col_edge.T, self.col_valid.T):
                np.add(total, np.take(msg, edge, axis=1, mode="clip"), out=total, where=valid)
            np.add(llr_w, total, out=total)
            np.take(total, self.edge_col, axis=1, out=v2c, mode="clip")
            v2c -= msg
            ok_now = self._syndrome_ok(total < 0)
            out_bits[words[ok_now]] = total[ok_now] < 0
            done[words[ok_now]] = True
            if ok_now.any():
                words, llr_w, v2c = words[~ok_now], llr_w[~ok_now], v2c[~ok_now]
        return out_bits, done, iterations

    def resolves(self, erased: np.ndarray) -> bool:
        """Whether the parity checks determine every erased bit from the rest.

        Peeling on the graph alone: a check with exactly one unknown bit
        determines it, until no check does.  What is left is a stopping set;
        under min-sum its bits keep a total LLR of exactly 0, so a decision
        on them is no decision.
        """
        unknown = np.array(erased, dtype=bool)
        if unknown.shape != (self.n,):
            raise LengthMismatch(f"{unknown.size} erasure flags, expected {self.n}")
        while unknown.any():
            on_edge = unknown[self.edge_col]
            single = np.add.reduceat(on_edge, self.seg_start, dtype=np.int32) == 1
            peel = on_edge & single[self.edge_seg]
            if not peel.any():
                return False
            unknown[self.edge_col[peel]] = False
        return True

    def _syndrome_ok(self, bits: np.ndarray) -> np.ndarray:
        """Which words of a (words, n) 0/1 array meet every check.

        Up to 64 words ride as the bits of one uint64 per column (word i in
        bit i), so a block of words costs one gather and one segment XOR
        over the edge list; word i fails iff bit i of the rows' OR is set.
        To pack, each group of 8 words is laid out one byte per word in a
        uint64 per column, and a multiply moves byte j's low bit to bit
        56 + j (the products never overlap, so nothing carries).
        """
        bits = np.atleast_2d(bits)
        ok = np.empty(bits.shape[0], dtype=bool)
        for start in range(0, bits.shape[0], 64):
            block = bits[start : start + 64]
            words = block.shape[0]
            groups = -(-words // 8)
            spread = np.zeros((self.n, 8 * groups), dtype=np.uint8)
            spread[:, :words] = block.T
            packed = spread.view("<u8")  # (n, groups), word 8g + j in byte j
            packed *= _BYTES_TO_BITS
            packed >>= np.uint64(56)
            lanes = np.zeros((self.n, 8), dtype=np.uint8)
            lanes[:, :groups] = packed
            parity = np.bitwise_xor.reduceat(lanes.view("<u8")[self.edge_col, 0], self.seg_start)
            failed = np.bitwise_or.reduce(parity) >> np.arange(words, dtype=np.uint64)
            ok[start : start + words] = (failed & 1) == 0
        return ok


def _gf2_inverse(mat: np.ndarray) -> np.ndarray:
    m = mat.shape[0]
    if mat.shape[1] != m:
        raise DimensionMismatch("parity tail is not square")
    work = np.concatenate([mat.copy() % 2, np.eye(m, dtype=np.uint8)], axis=1)
    for col in range(m):
        pivots = np.nonzero(work[col:, col])[0]
        if pivots.size == 0:
            raise DimensionMismatch("parity tail is singular over GF(2)")
        p = pivots[0] + col
        if p != col:
            work[[col, p]] = work[[p, col]]
        rows = np.nonzero(work[:, col])[0]
        rows = rows[rows != col]
        work[rows] ^= work[col]
    return work[:, m:]


def decode_batch(frames: list[SoftFrame], codec) -> list[DecodedBlock]:
    """Decode up to 16 soft frames; short batches are padded with all-zero
    codewords (strong bit-0 LLRs) which are suppressed from the output.

    A frame with erased LLRs is reported failed unless its word converged
    and the code determines every erased bit (`codec.resolves`): all-zero
    LLRs meet the syndrome at iteration 0, and must not pass for data."""
    if not 1 <= len(frames) <= BATCH_SIZE:
        raise LengthMismatch(f"batch of {len(frames)}, expected 1..{BATCH_SIZE}")
    llrs = np.full((BATCH_SIZE, codec.n), LLR_CLIP, dtype=np.float32)
    for i, frame in enumerate(frames):
        if frame.llrs.size != codec.n:
            raise LengthMismatch(
                f"frame has {frame.llrs.size} LLRs, codec expects {codec.n}"
            )
        llrs[i] = frame.llrs
    bits, ok, _ = codec.decode(llrs)
    blocks = []
    for i, frame in enumerate(frames):
        failed = not bool(ok[i])
        if frame.erased is not None and not failed:
            failed = not codec.resolves(frame.erased)
        blocks.append(
            DecodedBlock(
                start_sample_number=frame.start_sample_number,
                info_bits=bits[i, : codec.k].copy(),
                failed=failed,
            )
        )
    return blocks


_ALIST_CODECS = {"ldpc_96_48", "ldpc_3060_1530"}


@lru_cache(maxsize=8)
def _load_packaged(name: str) -> LdpcCodec:
    with resources.as_file(resources.files("chunksdr.data").joinpath(f"{name}.alist")) as p:
        return LdpcCodec(load_matrix(p))


def get_codec(name: str, payload_bits: int | None = None):
    """Codec registry: packaged alist codes plus the passthrough code."""
    if name == "passthrough":
        if payload_bits is None:
            raise ValueError("passthrough codec needs the payload bit count")
        return PassthroughCodec(payload_bits)
    if name in _ALIST_CODECS:
        codec = _load_packaged(name)
        if payload_bits is not None and codec.n != payload_bits:
            raise DimensionMismatch(
                f"codec {name} has n={codec.n}, profile payload is {payload_bits} bits"
            )
        return codec
    if name.endswith(".alist"):
        return LdpcCodec(load_matrix(name))
    raise ValueError(f"unknown codec {name!r}")
