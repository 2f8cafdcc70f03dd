"""Lossy source coding with unit-lag feedforward side information.

The decoder emits each reconstruction symbol before seeing the matching
source symbol; the encoder exploits that causal reveal to reach the
rate-distortion bound with a fixed number of linear passes.
"""

from .codec import (
    CodecConfig,
    DecodeResult,
    EncodeResult,
    FeedforwardOracle,
    MeasureReport,
    decode,
    encode,
    measure,
    plan_passes,
)
from .coder import (
    Frame,
    QuantizedModel,
    compress,
    decode_frame_prefix,
    model_digest,
    quantize,
    quantize_channel,
)
from .erasure import (
    ERASED,
    ErasurePattern,
    ErasureSource,
    apply_erasures,
    bec_feedback_send,
    beq_decode,
    beq_encode,
    erasure_distortion,
)
from .errors import (
    CausalityError,
    CodingError,
    ConfigError,
    FfscError,
    ModelError,
    QuantizationError,
    ShapingError,
    StreamFormatError,
    TruncatedFrameError,
)
from .model import (
    Alphabet,
    DistortionMatrix,
    Pmf,
    TestChannel,
    blahut_arimoto,
    bundled_model_names,
    conditional_entropy,
    entropy,
    expected_distortion,
    growth_factor,
    is_strongly_typical,
    load_model,
    mutual_information,
)
from .rng import SplitMix64
from .shaping import deshape_raw, shape

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CausalityError",
    "CodecConfig",
    "CodingError",
    "ConfigError",
    "DecodeResult",
    "DistortionMatrix",
    "ERASED",
    "EncodeResult",
    "ErasurePattern",
    "ErasureSource",
    "FeedforwardOracle",
    "FfscError",
    "Frame",
    "MeasureReport",
    "ModelError",
    "Pmf",
    "QuantizationError",
    "QuantizedModel",
    "ShapingError",
    "SplitMix64",
    "StreamFormatError",
    "TestChannel",
    "TruncatedFrameError",
    "apply_erasures",
    "bec_feedback_send",
    "beq_decode",
    "beq_encode",
    "blahut_arimoto",
    "bundled_model_names",
    "compress",
    "conditional_entropy",
    "decode",
    "decode_frame_prefix",
    "deshape_raw",
    "encode",
    "entropy",
    "erasure_distortion",
    "expected_distortion",
    "growth_factor",
    "is_strongly_typical",
    "load_model",
    "measure",
    "model_digest",
    "mutual_information",
    "plan_passes",
    "quantize",
    "quantize_channel",
    "shape",
]
