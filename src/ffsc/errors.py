"""Exception types shared across the package."""


class FfscError(Exception):
    """Base class for all package-specific errors."""


class ModelError(FfscError):
    """Invalid probability model, distortion matrix, or solver input."""


class QuantizationError(ModelError):
    """A probability table cannot be quantized at the requested precision."""


class CodingError(FfscError):
    """Entropy-coding failure: malformed frame, truncated payload, bad symbol."""


class TruncatedFrameError(CodingError):
    """A frame ended before the declared number of symbols could be decoded."""


class ShapingError(FfscError):
    """Bit-shaping failure: padding mismatch or non-invertible state."""


class StreamFormatError(FfscError):
    """Malformed container stream: bad magic, version, header, or digest."""


class CausalityError(FfscError):
    """A decoder asked the feedforward oracle for a sample it has not earned."""


class ConfigError(FfscError):
    """Invalid codec or experiment configuration."""
