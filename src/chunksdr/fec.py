"""Pluggable FEC with the batch-of-16 decoder contract.

Decoders take up to 16 codewords at a time; short batches are padded with
all-zero codewords, and per-codeword early termination stops iterating a
word once its syndrome is zero.  The reference decoder is normalized
min-sum (factor 0.75, 50 iterations max) on alist-loaded sparse matrices.
LLR convention: positive means bit 0.
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


@dataclass(frozen=True)
class CodecDescriptor:
    name: str
    n: int
    k: int
    batch_size: int = BATCH_SIZE


@dataclass
class DecodedBlock:
    """Decoder output: info bits keyed by the frame's transmit boundary."""

    start_sample_number: int
    info_bits: np.ndarray  # uint8
    failed: bool = False


@dataclass
class ParityCheckMatrix:
    n: int
    m: int
    col_rows: list[np.ndarray]  # 0-based row indices per column
    row_cols: list[np.ndarray]  # 0-based column indices per row

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        for c, rows in enumerate(self.col_rows):
            h[rows, c] = 1
        return h


def load_matrix(path: str | Path) -> ParityCheckMatrix:
    """Parse and validate an alist-format sparse matrix file."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines()]
    idx = 0

    def next_ints(expect: int | None = None) -> list[int]:
        nonlocal idx
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        if idx >= len(lines):
            raise ParseError("unexpected end of file", line=len(lines))
        try:
            vals = [int(tok) for tok in lines[idx].split()]
        except ValueError as exc:
            raise ParseError(str(exc), line=idx + 1) from None
        if expect is not None and len(vals) != expect:
            raise ParseError(f"expected {expect} values, got {len(vals)}", line=idx + 1)
        idx += 1
        return vals

    n, m = next_ints(2)
    max_col, max_row = next_ints(2)
    col_wt = next_ints(n)
    row_wt = next_ints(m)
    if any(w <= 0 for w in col_wt):
        raise ParseError("matrix has an empty column", line=3)
    if max(col_wt) > max_col or max(row_wt) > max_row:
        raise DimensionMismatch("declared max weights inconsistent with weight lists")
    col_rows = []
    for c in range(n):
        vals = next_ints(max_col)
        rows = np.array([v - 1 for v in vals if v > 0], dtype=np.int64)
        if rows.size != col_wt[c] or np.any(rows < 0) or np.any(rows >= m):
            raise ParseError(f"column {c + 1} entries invalid", line=idx)
        col_rows.append(rows)
    row_cols = []
    for r in range(m):
        vals = next_ints(max_row)
        cols = np.array([v - 1 for v in vals if v > 0], dtype=np.int64)
        if cols.size != row_wt[r] or np.any(cols < 0) or np.any(cols >= n):
            raise ParseError(f"row {r + 1} entries invalid", line=idx)
        row_cols.append(cols)
    # cross-check the two adjacency lists
    edges_c = {(int(r), c) for c, rows in enumerate(col_rows) for r in rows}
    edges_r = {(r, int(c)) for r, cols in enumerate(row_cols) for c in cols}
    if edges_c != edges_r:
        raise DimensionMismatch("column and row adjacency lists disagree")
    return ParityCheckMatrix(n=n, m=m, col_rows=col_rows, row_cols=row_cols)


class PassthroughCodec:
    """n = k identity code: hard decision on the LLR sign."""

    def __init__(self, n: int, name: str = "passthrough"):
        self.descriptor = CodecDescriptor(name=name, n=n, k=n)

    @property
    def n(self) -> int:
        return self.descriptor.n

    @property
    def k(self) -> int:
        return self.descriptor.k

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(info_bits, dtype=np.uint8)
        if bits.size != self.k:
            raise LengthMismatch(f"{bits.size} info bits, expected {self.k}")
        return bits

    def decode(self, llrs: np.ndarray, early_termination: bool = True):
        llrs = np.atleast_2d(llrs)
        bits = (llrs < 0).astype(np.uint8)
        return bits, np.ones(llrs.shape[0], dtype=bool), 0


class LdpcCodec:
    """Normalized min-sum decoder plus a systematic encoder."""

    def __init__(self, matrix: ParityCheckMatrix, name: str):
        self.matrix = matrix
        self.descriptor = CodecDescriptor(name=name, n=matrix.n, k=matrix.n - matrix.m)
        self._build_edges()
        self._build_encoder()

    @property
    def n(self) -> int:
        return self.descriptor.n

    @property
    def k(self) -> int:
        return self.descriptor.k

    def _build_edges(self) -> None:
        mat = self.matrix
        rows, cols = [], []
        for r, cs in enumerate(mat.row_cols):
            rows.extend([r] * cs.size)
            cols.extend(cs.tolist())
        self.edge_row = np.array(rows, dtype=np.int64)
        self.edge_col = np.array(cols, dtype=np.int64)
        n_edges = self.edge_row.size
        # padded gather tables; the sentinel edge (index n_edges) is inert
        max_row = max(cs.size for cs in mat.row_cols)
        max_col = max(rs.size for rs in mat.col_rows)
        self.row_gather = np.full((mat.m, max_row), n_edges, dtype=np.int64)
        self.col_gather = np.full((mat.n, max_col), n_edges, dtype=np.int64)
        pos = 0
        for r, cs in enumerate(mat.row_cols):
            self.row_gather[r, : cs.size] = np.arange(pos, pos + cs.size)
            pos += cs.size
        by_col: list[list[int]] = [[] for _ in range(mat.n)]
        for e, c in enumerate(self.edge_col):
            by_col[c].append(e)
        for c, es in enumerate(by_col):
            self.col_gather[c, : len(es)] = es
        self.n_edges = n_edges

    def _build_encoder(self) -> None:
        """Detect an accumulator tail for O(n) encoding, else invert over GF(2)."""
        mat = self.matrix
        k, m = self.descriptor.k, mat.m
        dense = mat.to_dense()
        a, b = dense[:, :k], dense[:, k:]
        bidiag = np.tri(m, m, 0, dtype=np.uint8) - np.tri(m, m, -2, dtype=np.uint8)
        if np.array_equal(b, bidiag.astype(np.uint8)):
            self._accumulator = True
            self._a = a
        else:
            self._accumulator = False
            self._a = a
            self._b_inv = _gf2_inverse(b)

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(info_bits, dtype=np.uint8)
        if bits.size != self.k:
            raise LengthMismatch(f"{bits.size} info bits, expected {self.k}")
        au = (self._a @ bits) % 2
        if self._accumulator:
            parity = np.bitwise_and(np.cumsum(au), 1).astype(np.uint8)
        else:
            parity = (self._b_inv @ au) % 2
        return np.concatenate([bits, parity]).astype(np.uint8)

    def syndrome(self, codeword: np.ndarray) -> np.ndarray:
        bits = np.asarray(codeword, dtype=np.uint8)
        edge_bits = np.concatenate([bits[self.edge_col], [0]])
        return np.bitwise_xor.reduce(edge_bits[self.row_gather], axis=1)

    def decode(
        self,
        llrs: np.ndarray,
        early_termination: bool = True,
        max_iterations: int = MAX_ITERATIONS,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Decode a batch of LLR rows.

        Returns (codeword bits, converged flags, iterations run).  The output
        for each word is its first syndrome-zero hard decision; early
        termination only skips the remaining compute for converged words, so
        it never changes the result.
        """
        llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float32))
        batch, n = llrs.shape
        if n != self.n:
            raise LengthMismatch(f"{n} LLRs per word, expected {self.n}")
        ne = self.n_edges
        v2c = np.empty((batch, ne + 1), dtype=np.float32)
        c2v = np.zeros((batch, ne + 1), dtype=np.float32)
        v2c[:, :ne] = llrs[:, self.edge_col]
        v2c[:, ne] = np.inf  # sentinel: magnitude +inf, sign +
        out_bits = (llrs < 0).astype(np.uint8)
        done = self._syndrome_ok(out_bits)
        iterations = 0
        for it in range(max_iterations):
            if done.all():
                break
            active = ~done if early_termination else np.ones(batch, dtype=bool)
            iterations = it + 1
            msgs = v2c[active][:, self.row_gather]  # (B', m, w)
            mag = np.abs(msgs)
            sgn = np.signbit(msgs)
            row_sign = np.bitwise_xor.reduce(sgn, axis=2)
            min1_idx = np.argmin(mag, axis=2)
            min1 = np.take_along_axis(mag, min1_idx[..., None], axis=2)[..., 0]
            mag2 = mag.copy()
            np.put_along_axis(mag2, min1_idx[..., None], np.inf, axis=2)
            min2 = mag2.min(axis=2)
            # per-edge extrinsic: exclude own sign, use min2 on the argmin edge
            edge_is_min = (
                np.arange(mag.shape[2])[None, None, :] == min1_idx[..., None]
            )
            out_mag = np.where(edge_is_min, min2[..., None], min1[..., None])
            out_sign = row_sign[..., None] ^ sgn
            new_c2v = np.where(out_sign, -out_mag, out_mag) * MIN_SUM_NORM
            c2v_active = np.zeros((new_c2v.shape[0], ne + 1), dtype=np.float32)
            c2v_active[:, self.row_gather.ravel()] = new_c2v.reshape(new_c2v.shape[0], -1)
            c2v_active[:, ne] = 0.0
            c2v[active] = c2v_active
            total = llrs[active] + c2v_active[:, self.col_gather].sum(axis=2)
            v2c[active, :ne] = total[:, self.edge_col] - c2v_active[:, :ne]
            hard = (total < 0).astype(np.uint8)
            ok_now = self._syndrome_ok(hard)
            idx_active = np.nonzero(active)[0]
            first_time = ok_now & ~done[idx_active]
            out_bits[idx_active[first_time]] = hard[first_time]
            done[idx_active[ok_now]] = True
        return out_bits, done, iterations

    def _syndrome_ok(self, bits: np.ndarray) -> np.ndarray:
        bits = np.atleast_2d(bits)
        edge_bits = np.concatenate(
            [bits[:, self.edge_col], np.zeros((bits.shape[0], 1), np.uint8)], axis=1
        )
        parity = np.bitwise_xor.reduce(edge_bits[:, self.row_gather], axis=2)
        return ~parity.any(axis=1)


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


def decode_batch(
    frames: list[SoftFrame],
    codec,
    early_termination: bool = True,
) -> list[DecodedBlock]:
    """Decode up to 16 soft frames; short batches are padded with all-zero
    codewords (strong bit-0 LLRs) which are suppressed from the output."""
    if not 1 <= len(frames) <= BATCH_SIZE:
        raise LengthMismatch(f"batch of {len(frames)}, expected 1..{BATCH_SIZE}")
    llrs = np.full((BATCH_SIZE, codec.n), LLR_CLIP, dtype=np.float32)
    for i, frame in enumerate(frames):
        if frame.llrs.size != codec.n:
            raise LengthMismatch(
                f"frame has {frame.llrs.size} LLRs, codec expects {codec.n}"
            )
        llrs[i] = frame.llrs
    bits, ok, _ = codec.decode(llrs, early_termination=early_termination)
    blocks = []
    for i, frame in enumerate(frames):
        blocks.append(
            DecodedBlock(
                start_sample_number=frame.start_sample_number,
                info_bits=bits[i, : codec.k].copy(),
                failed=not bool(ok[i]),
            )
        )
    return blocks


_ALIST_CODECS = {"ldpc_96_48", "ldpc_3060_1530"}


@lru_cache(maxsize=8)
def _load_packaged(name: str) -> LdpcCodec:
    with resources.as_file(resources.files("chunksdr.data").joinpath(f"{name}.alist")) as p:
        return LdpcCodec(load_matrix(p), name=name)


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
        return LdpcCodec(load_matrix(name), name=Path(name).stem)
    raise ValueError(f"unknown codec {name!r}")
