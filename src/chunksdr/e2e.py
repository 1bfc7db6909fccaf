"""Full-loop driver: synthesize, impair, distribute, demodulate, recombine.

Used by the `e2e` CLI subcommand and the acceptance suite.  The impaired
samples reach the workers through `distributor.receive_chunks`, the receive
path that `demod` and `bench` share.  The generated stream carries `frames`
scored frames plus enough continuation frames that the last scored frame is
covered by a complete chunk (a real stream is continuous; the tail padding
stands in for it).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig, apply as chan_apply
from .distributor import DEFAULT_FULL_SCALE, receive_chunks
from .modem import TxStream, generate_stream
from .runtime import PipelineResult, ReceiverContext, RunStats, run_pipeline


@dataclass
class E2EResult:
    frames_requested: int
    frames_recovered: int
    bit_errors: int
    bits_compared: int
    seconds: float
    stats: RunStats
    blocks: list = field(default_factory=list)

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_compared if self.bits_compared else math.nan

    def summary(self) -> dict:
        return {
            "frames": self.frames_requested,
            "frames_recovered": self.frames_recovered,
            "ber": self.ber,
            "bit_errors": self.bit_errors,
            "bits_compared": self.bits_compared,
            **self.stats.report(),
            "seconds": round(self.seconds, 3),
        }


def synthesize(ctx: ReceiverContext, frames: int, seed: int) -> TxStream:
    """Scored frames plus continuation so the tail is chunk-covered."""
    plan = ctx.plan
    pad = plan.chunk.chunk_samples // plan.frame_samples + 2
    return generate_stream(plan.profile, ctx.codec, frames + pad, seed=seed)


def run_e2e(
    ctx: ReceiverContext,
    frames: int = 64,
    esn0_db: float | None = 12.0,
    ppm: float = 0.0,
    freq_per_symbol: float = 0.0,
    workers: int = 1,
    seed: int = 0,
    loss_rate: float = 0.0,
    taps_factory=None,
) -> E2EResult:
    t_start = time.perf_counter()
    plan = ctx.plan
    profile = plan.profile

    stream = synthesize(ctx, frames, seed)
    cfg = ChannelConfig.for_profile(
        profile,
        clock_offset_ppm=ppm,
        carrier_freq_offset=freq_per_symbol / float(profile.samples_per_symbol),
        esn0_db=esn0_db,
        seed=seed + 1,
    )
    rx = chan_apply(stream.samples, cfg)

    chunks, assembly = receive_chunks(
        rx, plan, DEFAULT_FULL_SCALE, loss_rate=loss_rate, seed=seed + 2
    )

    result: PipelineResult = run_pipeline(chunks, ctx, workers=workers, taps_factory=taps_factory)
    result.stats.assembly = assembly

    errors = 0
    compared = 0
    recovered: set[int] = set()
    frame_samples = plan.frame_samples
    for block in result.blocks:
        f, rem = divmod(block.start_sample_number, frame_samples)
        if rem or not 0 <= f < frames:
            continue
        truth = stream.info_bits[f]
        errors += int(np.sum(block.info_bits != truth))
        compared += truth.size
        if not block.failed:
            recovered.add(f)
    elapsed = time.perf_counter() - t_start
    return E2EResult(
        frames_requested=frames,
        frames_recovered=len(recovered),
        bit_errors=errors,
        bits_compared=compared,
        seconds=elapsed,
        stats=result.stats,
        blocks=result.blocks,
    )
