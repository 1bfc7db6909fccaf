"""Waveform, packet, chunk, and multicast-group geometry.

Everything downstream (modem, distributor, demod workers, combiner) consumes
a validated :class:`Numerology` built here.  Plans are immutable and safe to
share across threads and processes.  A value every profile shares is a
constant here; a profile file sets only the keys that differ between
profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import ClassVar

from .errors import (
    NonIntegerFrameSamples,
    NumerologyError,
    OverlapTooSmall,
    PacketNotMultipleOf64,
)

# Extra interpolator-flush samples on top of the clock-slack bound.
EXTRA_SAMPLE_MARGIN = 8

# Multicast groups a chunk spans.  Consecutive chunks share their boundary
# group, so a chunk advances by one group fewer than it spans.
GROUPS_PER_CHUNK = 17

# Transmit position p of an n-bit codeword carries bit (a * p mod n), with a
# this multiplier (see `modem.codeword_order`): a permutation whenever a and n
# are coprime, which, a being prime, is every n it does not divide.
CODEWORD_ORDER_MULTIPLIER = 1013


@dataclass(frozen=True)
class WaveformProfile:
    """Frame geometry plus receiver tuning knobs.

    The input oversampling (8/5, rational so that frame boundaries land on
    integer samples) and the 8PSK constellation are fixed by the modem and
    receiver.  The pulse rolloff, the clock-offset bound the chunk overlap
    covers and the preamble seed are the same in every profile.  All five
    are class constants rather than profile keys.
    """

    samples_per_symbol: ClassVar[Fraction] = Fraction(8, 5)
    bits_per_symbol: ClassVar[int] = 3
    rolloff: ClassVar[float] = 0.25
    max_clock_offset_ppm: ClassVar[float] = 10.0
    preamble_seed: ClassVar[int] = 2001

    name: str
    preamble_symbols: int = 90
    payload_symbols: int = 21600
    codec: str = "passthrough"
    timing_loop_bw: float = 1e-4
    phase_loop_bw: float = 5e-4
    warmup_symbols: int = 65536

    @property
    def frame_symbols(self) -> int:
        return self.preamble_symbols + self.payload_symbols

    @property
    def frame_samples(self) -> int:
        exact = self.frame_symbols * self.samples_per_symbol
        if exact.denominator != 1:
            raise NonIntegerFrameSamples(
                f"{self.frame_symbols} symbols x {self.samples_per_symbol} sps "
                f"= {exact} samples"
            )
        return int(exact)

    @property
    def payload_bits(self) -> int:
        return self.payload_symbols * self.bits_per_symbol

    def validate(self) -> None:
        if self.preamble_symbols <= 0 or self.payload_symbols <= 0:
            raise NumerologyError("frame must have preamble and payload symbols")
        if math.gcd(self.payload_bits, CODEWORD_ORDER_MULTIPLIER) != 1:
            raise NumerologyError(
                f"payload of {self.payload_bits} bits shares a factor with the "
                f"codeword order multiplier {CODEWORD_ORDER_MULTIPLIER}"
            )
        self.frame_samples  # raises NonIntegerFrameSamples


@dataclass(frozen=True)
class PacketPlan:
    packets_per_group: ClassVar[int] = 8

    samples_per_packet: int

    @property
    def packet_payload_bytes(self) -> int:
        return 2 * self.samples_per_packet

    @property
    def samples_per_group(self) -> int:
        return self.packets_per_group * self.samples_per_packet


@dataclass(frozen=True)
class ChunkPlan:
    groups_per_chunk: ClassVar[int] = GROUPS_PER_CHUNK
    advance_groups: ClassVar[int] = GROUPS_PER_CHUNK - 1
    packets_per_group: ClassVar[int] = PacketPlan.packets_per_group

    samples_per_packet: int
    frame_samples: int
    extra_samples: int

    @property
    def packets_per_chunk(self) -> int:
        return self.groups_per_chunk * self.packets_per_group

    @property
    def chunk_samples(self) -> int:
        return self.packets_per_chunk * self.samples_per_packet

    @property
    def samples_per_group(self) -> int:
        return self.packets_per_group * self.samples_per_packet

    @property
    def advance_packets(self) -> int:
        return self.advance_groups * self.packets_per_group

    @property
    def advance_samples(self) -> int:
        return self.advance_packets * self.samples_per_packet

    @property
    def overlap_samples(self) -> int:
        return self.samples_per_group

    @property
    def guaranteed_frames(self) -> int:
        """Complete frames a chunk yields at the worst alignment."""
        return (self.chunk_samples - (self.frame_samples - 1)) // self.frame_samples


@dataclass(frozen=True)
class DistributionPlan:
    groups_per_chunk: ClassVar[int] = ChunkPlan.groups_per_chunk
    advance_groups: ClassVar[int] = ChunkPlan.advance_groups

    num_servers: int

    @property
    def total_groups(self) -> int:
        return self.advance_groups * self.num_servers

    def lead_group(self, server: int) -> int:
        return self.advance_groups * server

    def subscriptions(self, server: int) -> tuple[int, ...]:
        """Group indices server subscribes to: 17 consecutive mod total, wrapped."""
        lead = self.lead_group(server)
        return tuple((lead + i) % self.total_groups for i in range(self.groups_per_chunk))


@dataclass(frozen=True)
class Numerology:
    """Bundle of a validated profile and its derived plans."""

    profile: WaveformProfile
    packet: PacketPlan
    chunk: ChunkPlan
    distribution: DistributionPlan

    @property
    def frame_samples(self) -> int:
        return self.profile.frame_samples


def make_numerology(
    profile: WaveformProfile,
    packet: PacketPlan,
    servers: int = 1,
) -> Numerology:
    """Derive and validate the full plan; fails rather than silently rounding."""
    profile.validate()
    if servers < 1:
        raise NumerologyError("need at least one server")
    if packet.packet_payload_bytes % 64 != 0:
        raise PacketNotMultipleOf64(
            f"packet payload {packet.packet_payload_bytes} bytes not a multiple of 64"
        )

    frame_samples = profile.frame_samples
    chunk_samples = GROUPS_PER_CHUNK * packet.samples_per_group
    extra = (
        math.ceil(chunk_samples * profile.max_clock_offset_ppm * 1e-6)
        + EXTRA_SAMPLE_MARGIN
    )
    chunk = ChunkPlan(
        samples_per_packet=packet.samples_per_packet,
        frame_samples=frame_samples,
        extra_samples=extra,
    )
    if packet.samples_per_group < frame_samples + extra:
        raise OverlapTooSmall(
            f"group of {packet.samples_per_group} samples does not cover one frame "
            f"({frame_samples}) plus clock slack ({extra})"
        )
    if chunk.chunk_samples < 16 * frame_samples + chunk.overlap_samples:
        raise NumerologyError(
            f"chunk of {chunk.chunk_samples} samples cannot hold a 16-frame decoder "
            "batch plus overlap"
        )
    return Numerology(
        profile=profile, packet=packet, chunk=chunk, distribution=DistributionPlan(servers)
    )


def group_of_packet(packet_number: int, plan: Numerology) -> int:
    """Multicast group index a packet is published on."""
    return (packet_number // plan.packet.packets_per_group) % plan.distribution.total_groups


def first_sample_of_packet(packet_number: int, plan: Numerology) -> int:
    """Absolute sample number of a packet's first sample; monotone, collision-free."""
    return packet_number * plan.packet.samples_per_packet


# -- profile files ------------------------------------------------------------

_PROFILE_PARSERS = {
    "name": str,
    "preamble_symbols": int,
    "payload_symbols": int,
    "codec": str,
    "timing_loop_bw": float,
    "phase_loop_bw": float,
    "warmup_symbols": int,
    "samples_per_packet": int,
}


def _profile_text(name_or_path: str) -> str:
    path = Path(name_or_path)
    if path.suffix == ".profile" or path.exists():
        return path.read_text()
    res = resources.files("chunksdr.data").joinpath(f"{name_or_path}.profile")
    if not res.is_file():
        raise NumerologyError(f"unknown profile {name_or_path!r}")
    return res.read_text()


def load_profile(name_or_path: str) -> tuple[WaveformProfile, dict]:
    """Read a key/value profile file.

    Returns the waveform profile and the packetization key found in the
    file (``samples_per_packet``, the only one that differs by profile).
    """
    fields: dict = {}
    for lineno, raw in enumerate(_profile_text(name_or_path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise NumerologyError(f"profile line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PROFILE_PARSERS:
            raise NumerologyError(f"profile line {lineno}: unknown key {key!r}")
        fields[key] = _PROFILE_PARSERS[key](value)
    packet_fields = {k: fields.pop(k) for k in ("samples_per_packet",) if k in fields}
    profile = WaveformProfile(**fields)
    profile.validate()
    return profile, packet_fields


def load_numerology(name_or_path: str, servers: int = 1) -> Numerology:
    profile, packet_fields = load_profile(name_or_path)
    return make_numerology(profile, PacketPlan(**packet_fields), servers=servers)
