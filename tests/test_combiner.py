"""Reorder buffer semantics and the block wire framing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunksdr.combiner import ReorderBuffer, decode_block_stream, encode_block
from chunksdr.errors import ParseError
from chunksdr.fec import DecodedBlock

S = 1000  # nominal block spacing for these tests


def block(start, bits=None, failed=False):
    if bits is None:
        rng = np.random.default_rng(start % (2**31))
        bits = rng.integers(0, 2, 24, dtype=np.uint8)
    return DecodedBlock(start_sample_number=start, info_bits=np.asarray(bits, np.uint8),
                        failed=failed)


def starts(blocks):
    return [b.start_sample_number for b in blocks]


def _desk_like_groups(n_chunks, spacing=S):
    """Chunk deliveries with the receiver's real frame-to-chunk arithmetic:
    chunks advance 28672 samples of 1680-sample frames, so overlapping
    chunks occasionally share a boundary frame (the duplicate)."""
    advance, chunk_span, frame = 28672, 30464, 1680
    groups = []
    for c in range(n_chunks):
        lo = c * advance
        first = -(-lo // frame)  # ceil
        last = (lo + chunk_span - frame) // frame
        groups.append([block(f * spacing) for f in range(first, last + 1)])
    return groups


def _delivered_groups(seed):
    """(chunk index, group) for 2-19 ascending desk-like chunks, 25% never delivered."""
    rng = np.random.default_rng(seed)
    groups = enumerate(_desk_like_groups(int(rng.integers(2, 20))))
    return [(c, g) for c, g in groups if rng.random() >= 0.25]


def _assert_floor_matches_no_floor(groups, floors):
    """Submit each group with the floor set to `floors[i]`: same output, gaps
    and nothing stale or overflowed, as without a floor."""
    plain, floored = ReorderBuffer(block_spacing=S), ReorderBuffer(block_spacing=S)
    want, got = [], []
    for g, floor in zip(groups, floors):
        want += plain.submit_group(g)
        floored.floor = floor
        got += floored.submit_group(g)
    want += plain.flush()
    got += floored.flush()
    assert starts(got) == starts(want)
    assert floored.stats.stale == floored.stats.overflow_emits == 0
    assert floored.stats.gaps == plain.stats.gaps


class TestSequentialRule:
    def test_normal_chunk_leads(self):
        """0, 16S, 32S: all sequential, emitted immediately."""
        buf = ReorderBuffer(block_spacing=S)
        out = []
        for s in (0, 16 * S, 32 * S):
            out += buf.submit(block(s))
        assert starts(out) == [0, 16 * S, 32 * S]

    def test_extra_frame_sequence(self):
        """0, 16S, 17S, 33S: the 17S delta of one frame stays sequential."""
        buf = ReorderBuffer(block_spacing=S)
        out = []
        for s in (0, 16 * S, 17 * S, 33 * S):
            out += buf.submit(block(s))
        assert starts(out) == [0, 16 * S, 17 * S, 33 * S]

    def test_exactly_17s_gap_waits(self):
        buf = ReorderBuffer(block_spacing=S)
        assert buf.submit(block(0)) != []
        assert buf.submit(block(17 * S + 0)) == []  # delta == 17S: not sequential
        assert len(buf.pending) == 1

    def test_gap_below_17s_passes(self):
        buf = ReorderBuffer(block_spacing=S)
        out = buf.submit(block(0))
        out += buf.submit(block(16 * S))
        assert starts(out) == [0, 16 * S]
        assert buf.stats.gaps == 1  # delta > spacing counted as a gap


class TestDuplicates:
    def test_duplicate_dropped_and_counted(self):
        buf = ReorderBuffer(block_spacing=S)
        out = buf.submit(block(0, bits=np.ones(24, np.uint8)))
        out += buf.submit(block(16 * S, bits=np.ones(24, np.uint8)))
        out += buf.submit(block(16 * S, bits=np.ones(24, np.uint8)))
        assert starts(out) == [0, 16 * S]
        assert buf.stats.duplicates == 1
        assert buf.stats.conflicts == 0  # emitted before its duplicate, same bits

    def test_pending_duplicate_keeps_first(self):
        buf = ReorderBuffer(block_spacing=S)
        buf.submit(block(40 * S, bits=np.zeros(24, np.uint8)))  # buffered (gap)
        buf.submit(block(40 * S, bits=np.ones(24, np.uint8)))
        assert buf.stats.duplicates == 1
        assert buf.stats.conflicts == 1
        assert not buf.pending[40 * S].info_bits.any()

    def test_exactly_once_with_duplicate_injection(self):
        """Overlap duplicates plus re-delivered groups: every distinct start
        appears exactly once in the output."""
        rng = np.random.default_rng(1)
        groups = _desk_like_groups(12)
        # ~10% duplicates: re-deliver some groups entirely
        fed = groups + [groups[i] for i in rng.choice(len(groups), 2)]
        expected = sorted({b.start_sample_number for g in groups for b in g})
        buf = ReorderBuffer(block_spacing=S, capacity=128)
        out = []
        for i in rng.permutation(len(fed)):
            out += buf.submit_group(fed[i])
        out += buf.flush()
        assert starts(out) == expected
        assert len(set(starts(out))) == len(expected)


class TestFloor:
    """The runner's floor: no block still to come has a key below it."""

    def test_gap_below_floor_released_at_once(self):
        buf = ReorderBuffer(block_spacing=S)
        assert starts(buf.submit(block(0))) == [0]
        assert buf.submit(block(30 * S)) == []  # 30S gap: held
        buf.floor = 30 * S + 1
        assert starts(buf.submit_group([])) == [30 * S]
        assert buf.stats.gaps == 1
        assert buf.stats.overflow_emits == 0

    def test_released_block_unblocks_the_sequential_rule(self):
        buf = ReorderBuffer(block_spacing=S)
        buf.submit(block(0))
        buf.floor = 25 * S
        out = buf.submit_group([block(24 * S), block(40 * S)])
        assert starts(out) == [24 * S, 40 * S]  # 40S is 16S past 24S

    def test_nothing_at_or_above_floor_changes(self):
        buf = ReorderBuffer(block_spacing=S)
        buf.submit(block(0))
        buf.floor = 30 * S
        assert buf.submit_group([block(30 * S), block(50 * S)]) == []
        assert sorted(buf.pending) == [30 * S, 50 * S]
        buf.floor = 50 * S
        assert starts(buf.submit_group([])) == [30 * S]  # 50S is 20S past 30S: held
        assert sorted(buf.pending) == [50 * S]

    def test_late_duplicate_bits_compared(self):
        """A key released through the floor, then delivered again with other
        bits: a duplicate and a conflict, whatever the timing."""
        buf = ReorderBuffer(block_spacing=S)
        buf.submit(block(0))
        buf.floor = 40 * S
        assert starts(buf.submit(block(30 * S, bits=np.zeros(24, np.uint8)))) == [30 * S]
        assert buf.submit(block(30 * S, bits=np.ones(24, np.uint8))) == []
        assert buf.stats.duplicates == 1
        assert buf.stats.conflicts == 1
        assert buf.stats.stale == 0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ascending_chunks_with_drops_match_no_floor(self, seed):
        """Chunks delivered in ascending order, some never: with the floor at
        the smallest key still to come, the output is the floorless output,
        nothing is stale and nothing overflows."""
        groups = _delivered_groups(seed)
        nexts = [g[0].start_sample_number for _, g in groups[1:]] + [-1]
        _assert_floor_matches_no_floor([g for _, g in groups], nexts)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_floor_at_next_chunk_on_the_grid_matches_no_floor(self, seed):
        """As above, but the floor after group c is the smallest key chunk
        c + 1 could hold, whether or not it is ever delivered: all that a
        runner with nothing in flight knows."""
        groups = _delivered_groups(seed)
        grid = [-(-(c + 1) * 28672 // 1680) * S for c, _ in groups]  # ceil
        _assert_floor_matches_no_floor([g for _, g in groups], grid)


class TestOverflow:
    def test_closest_nonsequential_emitted(self):
        """16S missing forever, capacity 8: the 9th pending block forces out
        the smallest (32S), and processing continues normally."""
        buf = ReorderBuffer(block_spacing=S, capacity=8)
        out = buf.submit(block(0))
        assert starts(out) == [0]
        emitted = []
        for i in range(8):
            emitted += buf.submit(block((32 + 16 * i) * S))
        assert emitted == []
        assert len(buf.pending) == 8
        emitted = buf.submit(block((32 + 16 * 8) * S))
        # 32S comes out (gap), then the rest cascade (16S deltas)
        assert starts(emitted)[0] == 32 * S
        assert buf.stats.gaps >= 1
        assert buf.stats.overflow_emits == 1
        assert len(buf.pending) <= buf.capacity

    def test_bounded_memory(self):
        rng = np.random.default_rng(2)
        buf = ReorderBuffer(block_spacing=S, capacity=16)
        for s in rng.permutation(400):
            buf.submit(block(int(s) * 50 * S))  # huge gaps: everything buffers
            assert len(buf.pending) <= buf.capacity + 1


class TestFlush:
    def test_empty(self):
        assert ReorderBuffer(block_spacing=S).flush() == []

    def test_pending_sorted(self):
        buf = ReorderBuffer(block_spacing=S)
        buf.submit(block(3 * 16 * S))
        hold = buf.submit(block(16 * S))
        assert hold == [] or starts(hold) == []
        out = buf.flush()
        assert starts(out) == [16 * S, 3 * 16 * S]
        assert not buf.pending

    def test_stale_after_flush(self):
        buf = ReorderBuffer(block_spacing=S)
        buf.submit(block(40 * S))
        buf.flush()
        assert buf.submit(block(S)) == []
        assert buf.stats.stale == 1


class TestPermutationInvariance:
    """Chunk-granularity reordering (workers finish out of order but deliver a
    chunk's blocks as one group): output is always the ascending block set."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_chunk_order(self, seed):
        """Holds whenever the reordering depth fits in the buffer; capacity
        pressure (overflow policy) is exercised separately."""
        rng = np.random.default_rng(seed)
        groups = _desk_like_groups(int(rng.integers(2, 14)))
        expected = sorted({b.start_sample_number for g in groups for b in g})
        buf = ReorderBuffer(block_spacing=S, capacity=512)
        out = []
        for gi in rng.permutation(len(groups)):
            out += buf.submit_group(groups[gi])
        out += buf.flush()
        assert starts(out) == expected

    def test_heavily_delayed_chunk(self):
        """A chunk completing dozens of chunks late still lands in order."""
        groups = _desk_like_groups(30)
        late = groups.pop(3)
        expected = sorted(
            {b.start_sample_number for g in groups for b in g}
            | {b.start_sample_number for b in late}
        )
        buf = ReorderBuffer(block_spacing=S, capacity=1024)
        out = []
        for g in groups:
            out += buf.submit_group(g)
        out += buf.submit_group(late)
        out += buf.flush()
        assert starts(out) == expected


class TestFraming:
    def test_roundtrip(self):
        blocks = [block(1680 * i, failed=(i == 2)) for i in range(5)]
        data = b"".join(encode_block(b) for b in blocks)
        back = list(decode_block_stream(data))
        assert len(back) == 5
        for a, b in zip(blocks, back):
            assert a.start_sample_number == b.start_sample_number
            assert a.failed == b.failed
            np.testing.assert_array_equal(a.info_bits, b.info_bits)

    def test_non_byte_multiple_bit_length(self):
        b = block(0, bits=np.array([1, 0, 1], np.uint8))
        back = next(iter(decode_block_stream(encode_block(b))))
        np.testing.assert_array_equal(back.info_bits, [1, 0, 1])

    def test_truncated_stream(self):
        b = block(0)
        data = encode_block(b)[:-2]
        with pytest.raises(ParseError):
            list(decode_block_stream(data))
