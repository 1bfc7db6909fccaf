"""chunksdr: a desk-scale massively parallel software-defined-radio receiver.

A framed 8PSK waveform is synthesized, impaired, packetized, distributed in
overlapping chunks to independent workers, demodulated per chunk
(resample -> two-pass symbol tracking -> two-pass phase tracking -> coherent
frame sync -> soft decisions -> FEC), and reassembled in order by a combiner.
"""

__version__ = "0.1.0"

from .errors import ChunkSdrError
from .numerology import (
    ChunkPlan,
    DistributionPlan,
    Numerology,
    PacketPlan,
    WaveformProfile,
    load_numerology,
    load_profile,
    make_numerology,
)

__all__ = [
    "ChunkSdrError",
    "ChunkPlan",
    "DistributionPlan",
    "Numerology",
    "PacketPlan",
    "WaveformProfile",
    "load_numerology",
    "load_profile",
    "make_numerology",
    "__version__",
]
