"""Exception hierarchy shared across the receiver."""


class ChunkSdrError(Exception):
    """Base class for all package errors."""


class NumerologyError(ChunkSdrError):
    """Invalid waveform/packet/chunk geometry."""


class NonIntegerFrameSamples(NumerologyError):
    pass


class OverlapTooSmall(NumerologyError):
    pass


class PacketNotMultipleOf64(NumerologyError):
    pass


class LengthMismatch(ChunkSdrError):
    pass


class LengthNotDivisible(ChunkSdrError):
    pass


class ChunkTooShort(ChunkSdrError):
    pass


class WarmupExceedsChunk(ChunkSdrError):
    pass


class NoPeak(ChunkSdrError):
    """Frame synchronization found no credible correlation peak."""


class ParseError(ChunkSdrError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionMismatch(ChunkSdrError):
    pass


class CaptureTimeout(ChunkSdrError):
    pass


class TapBusy(ChunkSdrError):
    """A monitor tap asked for a capture while another is under way."""
