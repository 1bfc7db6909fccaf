"""Ordered recombination of decoded blocks ("the stitcher").

Blocks are keyed by the absolute sample number of their frame boundary.
The runner submits whole chunks in hand-out order; a standalone caller may
submit blocks in any order.  The reorder buffer emits in ascending key
order: the smallest pending block is released once its delta from the last
emitted block is below 17x the nominal block spacing (a larger delta means
at least a whole chunk's worth of blocks may still be in flight).  The
runner may also set a floor: the smallest key that any block still to come
can have, which is the first sample of the oldest chunk in flight, or of
the next chunk when none is in flight.  Pending blocks below the floor are
final, so they are emitted at once, even across a gap (a dropped or failed
chunk).
Repeated keys are duplicates from chunk overlap and are dropped; a duplicate
whose bits differ from the kept block, pending or already emitted, is also
a conflict.  When the buffer exceeds capacity, the closest non-sequential
block (the smallest pending key) is emitted and processing continues
normally.

Wire framing for block messages over a reliable stream: 8-byte little-endian
start sample number, 4-byte bit length, 1 flags byte (bit 0 = decode
failure), then the payload bits packed MSB-first.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .fec import DecodedBlock

SEQUENTIAL_WINDOW_BLOCKS = 17
DEFAULT_CAPACITY = 64

_HEADER = struct.Struct("<QIB")
FLAG_FAILED = 0x01


@dataclass
class CombinerStats:
    emitted: int = 0
    duplicates: int = 0
    stale: int = 0
    gaps: int = 0
    conflicts: int = 0
    overflow_emits: int = 0


class ReorderBuffer:
    """Bounded reordering buffer keyed by start sample number."""

    def __init__(self, block_spacing: int, capacity: int = DEFAULT_CAPACITY):
        self.block_spacing = int(block_spacing)
        self.capacity = int(capacity)
        self.pending: dict[int, DecodedBlock] = {}
        self.floor = -1  # no block still to come has a key below this
        self._last_emitted = -self.block_spacing
        self._recent: OrderedDict[int, np.ndarray] = OrderedDict()  # key -> emitted bits
        self.stats = CombinerStats()

    def submit(self, block: DecodedBlock) -> list[DecodedBlock]:
        """Insert one block; returns whatever becomes emittable (in order)."""
        return self.submit_group([block])

    def submit_group(self, blocks: list[DecodedBlock]) -> list[DecodedBlock]:
        """Insert one delivery unit (a whole chunk's blocks) atomically.

        Workers hand the combiner a complete chunk's worth of blocks per
        message; inserting them before draining keeps a late chunk's blocks
        from being staled when a later chunk unblocks mid-insertion.
        """
        for block in blocks:
            start = block.start_sample_number
            if start in self.pending:
                kept = self.pending[start].info_bits
            elif start <= self._last_emitted:
                kept = self._recent.get(start)
                if kept is None:
                    self.stats.stale += 1
                    continue
            else:
                self.pending[start] = block
                continue
            self.stats.duplicates += 1
            if not np.array_equal(block.info_bits, kept):
                self.stats.conflicts += 1  # keep the first arrival
        out = self._drain()
        while len(self.pending) > self.capacity:
            self.stats.overflow_emits += 1
            out.append(self._emit(min(self.pending)))
            out.extend(self._drain())
        return out

    def flush(self) -> list[DecodedBlock]:
        """Emit everything pending in ascending order; buffer ends empty."""
        out = [self._emit(start) for start in sorted(self.pending)]
        return out

    def _drain(self) -> list[DecodedBlock]:
        out = []
        window = SEQUENTIAL_WINDOW_BLOCKS * self.block_spacing
        while self.pending:
            smallest = min(self.pending)
            if smallest - self._last_emitted < window or smallest < self.floor:
                out.append(self._emit(smallest))
            else:
                break
        return out

    def _emit(self, start: int) -> DecodedBlock:
        block = self.pending.pop(start)
        if start - self._last_emitted > self.block_spacing:
            self.stats.gaps += 1
        self._last_emitted = start
        self._recent[start] = block.info_bits
        while len(self._recent) > 4 * self.capacity:
            self._recent.popitem(last=False)
        self.stats.emitted += 1
        return block


def encode_block(block: DecodedBlock) -> bytes:
    bits = np.asarray(block.info_bits, dtype=np.uint8)
    flags = FLAG_FAILED if block.failed else 0
    return _HEADER.pack(block.start_sample_number, bits.size, flags) + np.packbits(bits).tobytes()


def decode_block_stream(data: bytes):
    """Yield DecodedBlocks from a concatenated message stream; a block cut
    short raises ParseError naming the byte offset where it starts."""
    offset = 0
    while offset < len(data):
        if len(data) - offset < _HEADER.size:
            raise ParseError(f"truncated block header at byte {offset}")
        start, n_bits, flags = _HEADER.unpack_from(data, offset)
        n_bytes = (n_bits + 7) // 8
        left = len(data) - offset - _HEADER.size
        if left < n_bytes:
            raise ParseError(
                f"truncated block payload at byte {offset}: {n_bytes} bytes declared, {left} left"
            )
        offset += _HEADER.size
        bits = np.unpackbits(np.frombuffer(data, np.uint8, n_bytes, offset))[:n_bits]
        offset += n_bytes
        yield DecodedBlock(
            start_sample_number=start,
            info_bits=bits.astype(np.uint8),
            failed=bool(flags & FLAG_FAILED),
        )
