"""Every exported name resolves, so a deletion cannot leave a stale export,
every exported name has a caller in the package itself, and every export
that takes a symbol array refuses a malformed one with a package error."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import ffsc
from ffsc import (
    CodecConfig,
    DistortionMatrix,
    ErasurePattern,
    ErasureSource,
    FeedforwardOracle,
    FfscError,
    Pmf,
    QuantizedModel,
    TestChannel,
    apply_erasures,
    bec_feedback_send,
    beq_decode,
    compress,
    decode,
    deshape_raw,
    encode,
    is_strongly_typical,
    measure,
    quantize,
    quantize_channel,
    shape,
)

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(ffsc.__path__))

# Exported names that nothing in the package calls, each kept on purpose.
NO_CALLER_IN_SRC = {
    # criterion 6 calls it as the one geometric block-length planner
    "plan_passes",
    # the reference range coder that the kernels are tested against
    "RangeEncoder",
    "RangeDecoder",
}


def test_package_exports_resolve():
    assert [n for n in ffsc.__all__ if not hasattr(ffsc, n)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    mod = importlib.import_module(f"ffsc.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ffsc import *", namespace)
    assert set(ffsc.__all__) <= set(namespace)


def _names_read_in_src() -> set[str]:
    """Every name and attribute that the submodules read.  Imports,
    strings and docstrings are not reads, and the package's __init__,
    which only re-exports, is left out."""
    read = set()
    for path in Path(ffsc.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return read


def test_every_export_has_a_caller_in_src():
    exported = set(ffsc.__all__)
    for name in SUBMODULES:
        mod = importlib.import_module(f"ffsc.{name}")
        exported |= set(getattr(mod, "__all__", ()))
    assert sorted(exported - _names_read_in_src()) == sorted(NO_CALLER_IN_SRC)


# -- malformed symbol arrays -----------------------------------------------

CFG = CodecConfig(prior=Pmf.uniform(2), channel=TestChannel.bsc(0.11),
                  distortion=DistortionMatrix.hamming(2), min_block=64,
                  passes=2)
SOURCE = np.resize([0, 1, 1, 0, 1, 0, 0], 1000)
ENC = encode(SOURCE, CFG)
CODED = SOURCE[SOURCE.size - ENC.n:]
DEC = decode(ENC.bitstream, FeedforwardOracle(CODED), CFG)
MODEL = quantize(Pmf.uniform(2), 16)
CHANNEL = quantize_channel(TestChannel.bsc(0.11), 16)
BITS = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1])
SIDE = np.resize([0, 1, 1], 512)
XHAT, USED = shape(BITS, SIDE, CHANNEL)
PATTERN = ErasurePattern.of(2, 3)
ERASURES = np.array([0, 2, 2, 1, 2, 0])

# export: (call, its well-formed symbol arrays, each one's alphabet size).
# The oracle's size is None: it holds the true source, whose samples its
# readers check against their own alphabets (deshape_raw, measure), so a
# sample the decoder never reads is left alone.
HOSTILE_TABLE = {
    "encode": (lambda x: encode(x, CFG), (SOURCE,), (2,)),
    "measure": (lambda x: measure(x, DEC, CFG.distortion), (CODED,), (2,)),
    "compress": (lambda s: compress(s, MODEL), (BITS,), (2,)),
    "shape": (lambda b, side: shape(b, side, CHANNEL), (BITS, SIDE), (2, 2)),
    "deshape_raw": (lambda xhat, x: deshape_raw(xhat, x, CHANNEL),
                    (XHAT, SIDE[:USED]), (2, 2)),
    "beq_decode": (lambda m: beq_decode(m, FeedforwardOracle(ERASURES)),
                   (np.array([0, 1, 0]),), (2,)),
    "bec_feedback_send": (lambda m: bec_feedback_send(m, PATTERN), (BITS,),
                          (2,)),
    "apply_erasures": (lambda i: apply_erasures(i, PATTERN), (BITS,), (2,)),
    "ErasureSource": (ErasureSource, (ERASURES,), (3,)),
    "FeedforwardOracle": (FeedforwardOracle, (CODED,), (None,)),
    "is_strongly_typical": (
        lambda x: is_strongly_typical(x, Pmf.uniform(2), 0.5), (SOURCE,),
        (2,)),
    "QuantizedModel": (lambda f: QuantizedModel(f, 16),
                       (np.array([32768, 32768]),), (2**16 + 1,)),
}

# Exports that take no symbol array: errors, records, float tables,
# scalars, bytes, and objects that were checked when they were built.
NO_SYMBOL_ARRAY = {
    "CausalityError", "CodingError", "ConfigError", "FfscError",
    "ModelError", "QuantizationError", "ShapingError", "StreamFormatError",
    "TruncatedFrameError",
    "Alphabet", "CodecConfig", "DecodeResult",
    "DistortionMatrix", "ERASED", "EncodeResult", "ErasurePattern", "Frame",
    "MeasureReport", "Pmf", "SplitMix64", "TestChannel",
    "beq_encode", "blahut_arimoto", "bundled_model_names",
    "conditional_entropy", "decode", "decode_frame_prefix", "entropy",
    "erasure_distortion", "expected_distortion", "growth_factor",
    "load_model", "model_digest", "mutual_information", "plan_passes",
    "quantize", "quantize_channel",
}


def _variants(good, size):
    """Malformed copies of a well-formed symbol array.  The 2-D and float
    copies flatten and truncate back to it; each value variant puts its
    symbol last, where a check of a prefix or a lazy read would miss it."""
    obj = good.astype(object)
    obj[-1] = None
    variants = {"2-D": good[:, None], "float": good + 0.25, "object": obj}
    for label, value in (("negative", -1), ("size", size)):
        if size is not None:
            variants[label] = np.concatenate([good[:-1], [value]])
    return variants


HOSTILE_CASES = [
    (name, arg, label)
    for name, (_, goods, sizes) in HOSTILE_TABLE.items()
    for arg, (good, size) in enumerate(zip(goods, sizes))
    for label in _variants(good, size)
]


def test_every_export_takes_symbol_arrays_only_through_the_table():
    assert not set(HOSTILE_TABLE) & NO_SYMBOL_ARRAY
    assert sorted(set(HOSTILE_TABLE) | NO_SYMBOL_ARRAY) == sorted(ffsc.__all__)


@pytest.mark.parametrize("name, arg, label", HOSTILE_CASES)
def test_malformed_symbol_array_raises_a_package_error(name, arg, label):
    """Every variant is refused outright.  Comparing results with the
    well-formed call's would pass a silent coercion back to it, which is
    the fault: a truncating QuantizedModel makes [32768.25, 32768.25] a
    valid table, and a truncating compress codes [0.25, 1.25] as [0, 1]."""
    call, goods, sizes = HOSTILE_TABLE[name]
    call(*goods)
    args = list(goods)
    args[arg] = _variants(goods[arg], sizes[arg])[label]
    with pytest.raises(FfscError):
        call(*args)


def test_constructors_keep_a_copy_of_the_callers_array():
    """A write into the caller's array after construction reaches none
    of the object's tables."""
    freq = np.array([[40000, 25536], [1, 65535]], dtype=np.int64)
    model = QuantizedModel(freq, 16)
    seq = np.array([0, 2, 1], dtype=np.int64)
    source = ErasureSource(seq)
    freq[:] = 0
    seq[:] = 1
    assert model.freq.tolist() == [[40000, 25536], [1, 65535]]
    assert model.cum.tolist() == [[0, 40000, 65536], [0, 1, 65536]]
    assert source.seq.tolist() == [0, 2, 1]
