"""Workload definitions, seeded input generation and output scoring.

Everything here runs outside the timed region.  Inputs are made with the
receiver's own `modem` and `channel` modules; scoring maps each decoded block
back to a transmit frame through the known channel (start offset and clock
offset), so it does not depend on how the receiver keys its blocks.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass

import numpy as np

PPM = 10.0
FREQ_PER_SYMBOL = 1e-4  # carrier offset, cycles per symbol
FULL_SCALE = 4.0  # packetizer full scale, as the e2e driver uses
# Packet loss replays one fixed drop trace (the transport's own Bernoulli
# draw at this seed) whatever the workload seed.  At 1e-3 a run loses about
# one chunk in eight.  When that count varied with the seed, the desk-stream
# latency percentiles spread by 0.20-0.27 of their median across five seeds
# on a 2-core x86 VM, wider than any bound could allow.
DROP_TRACE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    esn0_db: float
    servers: int
    loss_rate: float
    runner: str  # "process" or "thread"
    workers: int
    corpus_chunks: int = 0  # closed loop: chunks per pass
    trace_chunks: int = 0  # traced thread passes: chunks per pass
    rate_sps: float = 0.0  # open loop: input samples per second; 0 = closed loop

    @property
    def open_loop(self) -> bool:
        return self.rate_sps > 0

    def to_dict(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-12db", profile="desk", esn0_db=12.0, servers=1, loss_rate=0.0,
            runner="process", workers=2, corpus_chunks=24, trace_chunks=24,
        ),
        Workload(
            name="desk-stream", profile="desk", esn0_db=12.0, servers=2, loss_rate=1e-3,
            runner="thread", workers=1, trace_chunks=8, rate_sps=80_000.0,
        ),
    )
}

@dataclass
class Geometry:
    """Where transmit frames and chunks fall in receive-sample numbering."""

    frame_samples: int
    factor: float  # receive samples per transmit sample (clock offset)
    cut: int  # receive samples dropped from the stream head
    n_tx_frames: int
    advance: int
    chunk_samples: int
    overlap: int
    n_chunks: int  # complete chunks the packet stream defines

    def frame_start(self, f) -> np.ndarray:
        return np.asarray(f) * self.frame_samples * self.factor - self.cut

    def frame_end(self, f) -> np.ndarray:
        """Receive index one past the frame's last sample."""
        return self.frame_start(np.asarray(f) + 1)

    def covered_end(self) -> int:
        return (self.n_chunks - 1) * self.advance + self.chunk_samples

    def scored_frames(self) -> np.ndarray:
        f = np.arange(self.n_tx_frames)
        ok = (self.frame_start(f) >= 0) & (self.frame_end(f) <= self.covered_end())
        return f[ok]

    def chunk_of_interior(self, f: np.ndarray) -> np.ndarray:
        """Chunk whose non-overlapping interior holds frame f entirely, or -1."""
        start, end = self.frame_start(f), self.frame_end(f)
        c = np.floor(start / self.advance).astype(np.int64)
        lo = c * self.advance + np.where(c > 0, self.overlap, 0)
        hi = c * self.advance + np.where(
            c < self.n_chunks - 1, self.chunk_samples - self.overlap, self.chunk_samples
        )
        inside = (start >= lo) & (end <= hi) & (c < self.n_chunks)
        return np.where(inside, c, -1)


def make_inputs(w: Workload, ctx, seed: int, seconds: float) -> dict:
    """Seeded receive stream plus the ground truth needed to score it."""
    from chunksdr.channel import ChannelConfig, apply as chan_apply
    from chunksdr.modem import generate_stream

    plan = ctx.plan
    profile = plan.profile
    F = plan.frame_samples
    rng = np.random.default_rng(seed)
    # a live stream is never tuned in on a frame boundary
    cut = int(rng.integers(0, F)) if w.open_loop else 0
    if w.open_loop:
        n_samples = int(seconds * w.rate_sps)
    else:
        n_samples = (w.corpus_chunks - 1) * plan.chunk.advance_samples + plan.chunk.chunk_samples
    n_frames = math.ceil((n_samples + cut) / F) + 2
    stream = generate_stream(profile, ctx.codec, n_frames, seed=int(rng.integers(2**31)))
    cfg = ChannelConfig.for_profile(
        profile,
        clock_offset_ppm=PPM,
        carrier_freq_offset=FREQ_PER_SYMBOL / float(profile.samples_per_symbol),
        initial_phase=float(rng.uniform(0, 2 * np.pi)),
        esn0_db=w.esn0_db,
        seed=int(rng.integers(2**31)),
    )
    rx = chan_apply(stream.samples, cfg)[cut : cut + n_samples]
    return {
        "rx": np.ascontiguousarray(rx, dtype=np.complex64),
        "info_bits": stream.info_bits,
        "cut": cut,
        "loss_seed": DROP_TRACE_SEED,
    }


def geometry(plan, n_rx_samples: int, cut: int, n_tx_frames: int) -> Geometry:
    spp = plan.packet.samples_per_packet
    n_packets = n_rx_samples // spp
    ch = plan.chunk
    n_chunks = max(0, (n_packets - ch.packets_per_chunk) // ch.advance_packets + 1)
    return Geometry(
        frame_samples=plan.frame_samples,
        factor=1.0 + PPM * 1e-6,
        cut=cut,
        n_tx_frames=n_tx_frames,
        advance=ch.advance_samples,
        chunk_samples=ch.chunk_samples,
        overlap=ch.chunk_samples - ch.advance_samples,
        n_chunks=n_chunks,
    )


@dataclass
class Score:
    scored_frames: int
    delivered_frames: int
    bit_errors: int
    bits_compared: int
    delivered_bit_errors: int  # errors inside blocks not flagged as failed
    unmapped_blocks: int
    expected_chunks: int
    failed_chunks: int
    keys_ascending: bool
    latencies_s: np.ndarray  # one per delivered scored frame

    @property
    def frame_loss_ratio(self) -> float:
        return 1.0 - self.delivered_frames / self.scored_frames

    @property
    def bit_error_ratio(self) -> float:
        return self.bit_errors / self.bits_compared if self.bits_compared else 0.0

    @property
    def chunk_fail_ratio(self) -> float:
        return self.failed_chunks / self.expected_chunks


def score(
    geo: Geometry,
    info_bits: np.ndarray,
    keys: np.ndarray,
    bits: np.ndarray,
    failed: np.ndarray,
    emit_s: np.ndarray,
    due_s: np.ndarray | None,
) -> Score:
    """Score one pass's emitted blocks against the transmitted frames.

    A block maps to the nearest transmit frame boundary, which must lie within
    F/2 of its key.  `due_s[f]` is when frame f's last sample was due (None:
    every frame was due at the pass start, time 0).
    """
    scored = geo.scored_frames()
    scored_set = np.zeros(geo.n_tx_frames, dtype=bool)
    scored_set[scored] = True
    period = geo.frame_samples * geo.factor
    f = np.rint((keys + geo.cut) / period).astype(np.int64)
    near = np.abs(keys - geo.frame_start(f)) <= geo.frame_samples / 2
    mapped = near & (f >= 0) & (f < geo.n_tx_frames)
    mapped[mapped] = scored_set[f[mapped]]

    errors = 0
    delivered_errors = 0
    compared = 0
    first_emit: dict[int, float] = {}
    for i in np.nonzero(mapped)[0]:
        e = int(np.count_nonzero(bits[i] != info_bits[f[i]]))
        errors += e
        compared += info_bits.shape[1]
        if not failed[i]:
            delivered_errors += e
            first_emit.setdefault(int(f[i]), float(emit_s[i]))
    delivered = np.array(sorted(first_emit), dtype=np.int64)
    due = np.zeros(delivered.size) if due_s is None else due_s[delivered]
    latencies = np.array([first_emit[int(d)] for d in delivered]) - due

    ok_chunks = set(int(c) for c in geo.chunk_of_interior(delivered) if c >= 0)
    return Score(
        scored_frames=int(scored.size),
        delivered_frames=int(delivered.size),
        bit_errors=errors,
        bits_compared=compared,
        delivered_bit_errors=delivered_errors,
        unmapped_blocks=int(np.count_nonzero(~mapped)),
        expected_chunks=geo.n_chunks,
        failed_chunks=geo.n_chunks - len(ok_chunks),
        keys_ascending=bool(np.all(np.diff(keys) > 0)),
        latencies_s=latencies,
    )


def blocks_digest(keys: np.ndarray, bits: np.ndarray, failed: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in (keys.astype(np.int64), bits.astype(np.uint8), failed.astype(np.uint8)):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
