"""Every exported name resolves, so a deletion cannot leave a stale export,
every exported name has a caller in the package itself, every submodule
is imported by the package, and every export, of the package or of a
submodule, that takes a symbol array, a byte stream, an integer, a real
number, a string or a pmf or distortion table refuses a malformed one
with a package error."""

import ast
import importlib
import math
import os
import pkgutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ffsc
from ffsc import (
    Alphabet,
    CodecConfig,
    DistortionMatrix,
    ErasurePattern,
    ErasureSource,
    FeedforwardOracle,
    FfscError,
    Frame,
    Pmf,
    QuantizedModel,
    SplitMix64,
    TestChannel,
    apply_erasures,
    bec_feedback_send,
    beq_decode,
    blahut_arimoto,
    compress,
    decode,
    decode_frame_prefix,
    deshape_raw,
    encode,
    is_strongly_typical,
    load_model,
    measure,
    plan_passes,
    quantize,
    quantize_channel,
    shape,
)
from ffsc.bits import (as_bytes, as_int, as_real, as_symbols, fnv1a64,
                       read_uvarint, write_uvarint)
from ffsc.codec import read_header
from ffsc.errors import CodingError, ModelError, StreamFormatError
from ffsc.experiments import (ExperimentSpec, harness_workers,
                              run_beq_example, run_duality_example,
                              uniform_source)
from ffsc.shaping import PAD_PATTERN, check_unshaped

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(ffsc.__path__))
# Every name the package or one of its submodules exports.
EXPORTS = set(ffsc.__all__).union(*(
    getattr(importlib.import_module(f"ffsc.{name}"), "__all__", ())
    for name in SUBMODULES))

# Exported names that nothing in the package calls, each kept on purpose.
NO_CALLER_IN_SRC = {
    # criterion 6 calls it as the one geometric block-length planner
    "plan_passes",
    # the uniform prior's draws, through the harness's sampler, which
    # the tests and perfbench's traced runs call by name
    "uniform_source",
}

# Submodules that no module of the package imports: the console-script
# entry point that pyproject.toml names.
NOT_IMPORTED_IN_SRC = {"cli"}


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


def _submodules_imported_in_src() -> set[str]:
    """Every submodule that __init__.py or another submodule imports,
    by ``from .x import ...`` or ``from . import x``."""
    imported = set()
    for path in Path(ffsc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = ([node.module] if node.module
                         else [alias.name for alias in node.names])
                imported |= set(names) - {path.stem}
    return imported


def test_every_submodule_is_imported_by_the_package():
    """A module that no code path reaches cannot stay in the package."""
    assert sorted(set(SUBMODULES) - _submodules_imported_in_src()) == sorted(
        NOT_IMPORTED_IN_SRC)


def test_every_export_has_a_caller_in_src():
    assert sorted(EXPORTS - _names_read_in_src()) == sorted(NO_CALLER_IN_SRC)


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
PATTERN = ErasurePattern({2, 3})
ERASURES = np.array([0, 2, 2, 1, 2, 0])

# export: (call, its well-formed symbol arrays, each one's alphabet size).
# The oracle's size is None: it holds the true source, whose samples its
# readers check against their own alphabets (deshape_raw, measure), so a
# sample the decoder never reads is left alone.
HOSTILE_TABLE = {
    "encode": (lambda x: encode(x, CFG), (SOURCE,), (2,)),
    "measure": (lambda x, xhat: measure(x, replace(DEC, xhat=xhat),
                                         CFG.distortion),
                (CODED, DEC.xhat), (2, 2)),
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
    "as_symbols": (lambda a: as_symbols(a, 2, CodingError, "a"), (BITS,),
                   (2,)),
}

# Exports that take no symbol array: errors, constants, records, float
# tables, scalars, bytes, strings, and objects that were checked when they
# were built.
NO_SYMBOL_ARRAY = {
    "CausalityError", "CodingError", "ConfigError", "FfscError",
    "ModelError", "QuantizationError", "ShapingError", "StreamFormatError",
    "TruncatedFrameError",
    "ERASED", "HEADER_LEN", "MAGIC", "MAX_PRECISION", "MAX_SYMBOLS",
    "MIN_PRECISION", "PAD_PATTERN", "STREAM_VERSION",
    "Alphabet", "CodecConfig", "DecodeResult",
    "DistortionMatrix", "EncodeResult", "ErasurePattern", "ExperimentSpec",
    "Frame", "MeasureReport", "Pmf", "Report", "SplitMix64", "TestChannel",
    "TrialRow",
    "as_bytes", "as_int", "as_real", "beq_encode", "blahut_arimoto",
    "bundled_model_names", "check_unshaped", "conditional_entropy", "decode",
    "decode_frame_prefix", "entropy", "erasure_distortion",
    "estimate_total_samples", "expected_distortion", "fnv1a64",
    "growth_factor", "harness_workers", "load_model", "model_digest",
    "mutual_information", "plan_passes", "quantize", "quantize_channel",
    "read_header", "read_uvarint", "run_beq_example", "run_codec_experiment",
    "run_duality_example", "uniform_source", "write_uvarint",
}


def _variants(good, size):
    """Malformed copies of a well-formed symbol array.  The 2-D and float
    copies flatten and truncate back to it, and the ragged copy is its
    symbols and its first symbol as two rows of unequal length; each
    value variant puts its symbol last, where a check of a prefix or a
    lazy read would miss it."""
    obj = good.astype(object)
    obj[-1] = None
    variants = {"2-D": good[:, None], "float": good + 0.25, "object": obj,
                "ragged": [good.tolist(), good[:1].tolist()]}
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
    assert sorted(set(HOSTILE_TABLE) | NO_SYMBOL_ARRAY) == sorted(EXPORTS)


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


# -- malformed byte streams ------------------------------------------------

UNSHAPED, SETTLED = deshape_raw(XHAT, SIDE[:USED], CHANNEL)

# call that takes a byte stream: its well-formed stream.
BYTE_STREAM_TABLE = {
    "decode": (lambda b: decode(b, FeedforwardOracle(CODED), CFG),
               ENC.bitstream),
    "read_header": (read_header, ENC.bitstream),
    "decode_frame_prefix": (lambda b: decode_frame_prefix(b, MODEL, BITS.size),
                            compress(BITS, MODEL).to_bytes()),
    "check_unshaped": (lambda b: check_unshaped(b, SETTLED, BITS.size),
                       UNSHAPED),
    "Frame": (lambda b: Frame(3, b), b"\x01\x02"),
    "read_uvarint": (read_uvarint, b"\x05"),
    "fnv1a64": (fnv1a64, b"ab"),
    "as_bytes": (lambda b: as_bytes(b, StreamFormatError, "b"), b"ab"),
}

# Exports that take no byte stream: errors, constants, records, symbol
# arrays, scalars, tables, strings and paths, and objects that were
# checked when they were built.
NO_BYTE_STREAM = {
    "CausalityError", "CodingError", "ConfigError", "FfscError",
    "ModelError", "QuantizationError", "ShapingError", "StreamFormatError",
    "TruncatedFrameError",
    "ERASED", "HEADER_LEN", "MAGIC", "MAX_PRECISION", "MAX_SYMBOLS",
    "MIN_PRECISION", "PAD_PATTERN", "STREAM_VERSION",
    "Alphabet", "CodecConfig", "DecodeResult", "DistortionMatrix",
    "EncodeResult", "ErasurePattern", "ErasureSource", "ExperimentSpec",
    "FeedforwardOracle", "MeasureReport", "Pmf", "QuantizedModel", "Report",
    "SplitMix64", "TestChannel", "TrialRow",
    "apply_erasures", "as_int", "as_real", "as_symbols", "bec_feedback_send",
    "beq_decode", "beq_encode", "blahut_arimoto", "bundled_model_names",
    "compress", "conditional_entropy", "deshape_raw", "encode", "entropy",
    "erasure_distortion", "estimate_total_samples", "expected_distortion",
    "growth_factor", "harness_workers", "is_strongly_typical", "load_model",
    "measure", "model_digest", "mutual_information", "plan_passes",
    "quantize", "quantize_channel", "run_beq_example",
    "run_codec_experiment", "run_duality_example", "shape", "uniform_source",
    "write_uvarint",
}


def _byte_variants(good):
    """Malformed byte streams: none is a 1-D buffer of single bytes,
    though the int, the list and both arrays convert to bytes."""
    as_array = np.frombuffer(good, dtype=np.uint8)
    return {"str": "x" * 40, "int": 5, "None": None, "list": list(good),
            "2-D": as_array[None, :], "int64": as_array.astype(np.int64)}


def test_every_export_takes_byte_streams_only_through_the_table():
    assert not set(BYTE_STREAM_TABLE) & NO_BYTE_STREAM
    assert sorted(set(BYTE_STREAM_TABLE) | NO_BYTE_STREAM) == sorted(EXPORTS)


@pytest.mark.parametrize("name", BYTE_STREAM_TABLE)
def test_every_byte_buffer_is_accepted(name):
    call, good = BYTE_STREAM_TABLE[name]
    for buffer in (good, bytearray(good), memoryview(good),
                   np.frombuffer(good, dtype=np.uint8)):
        call(buffer)


@pytest.mark.parametrize("name, label", [
    (name, label) for name, (_, good) in BYTE_STREAM_TABLE.items()
    for label in _byte_variants(good)])
def test_malformed_byte_stream_raises_a_package_error(name, label):
    call, good = BYTE_STREAM_TABLE[name]
    with pytest.raises(FfscError):
        call(_byte_variants(good)[label])


def test_constructors_keep_a_copy_of_the_callers_array():
    """A write into the caller's array after construction reaches none
    of the object's tables, and the caller's array stays writable."""
    freq = np.array([[40000, 25536], [1, 65535]], dtype=np.int64)
    model = QuantizedModel(freq, 16)
    seq = np.array([0, 2, 1], dtype=np.int64)
    source = ErasureSource(seq)
    probs = np.array([0.25, 0.75])
    prior = Pmf(probs)
    rows = np.array([[0.5, 0.5], [0.0, 1.0]])
    channel = TestChannel(rows)
    entries = np.array([[0.0, 1.0], [1.0, 0.0]])
    d = DistortionMatrix(entries)
    freq[:] = 0
    seq[:] = 1
    probs[:] = 0.5
    rows[:] = 0.5
    entries[:] = 2.0
    assert model.freq.tolist() == [[40000, 25536], [1, 65535]]
    assert model.cum.tolist() == [[0, 40000, 65536], [0, 1, 65536]]
    assert source.seq.tolist() == [0, 2, 1]
    assert prior.probs.tolist() == [0.25, 0.75]
    assert channel.rows.tolist() == [[0.5, 0.5], [0.0, 1.0]]
    assert d.entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]


# -- malformed scalars, strings and real tables -----------------------------


def _int(*past):
    """Malformed integer arguments: a float, a string, a bool, None and
    the given values past the argument's bounds."""
    return (2.5, "3", True, None, *past)


def _real(*past):
    """Malformed real arguments: a string, NaN, a bool and the given
    values past the argument's bounds."""
    return ("x", math.nan, True, *past)


def _emitted(count):
    oracle = FeedforwardOracle(CODED)
    oracle.emit(count)
    return oracle


FRAME = compress(BITS, MODEL).to_bytes()
HAMMING = DistortionMatrix.hamming(2)
PMF_BAD = (0.5, "ab", [[0.5, 0.5]], [0.5, 0.6], [1.5, -0.5])
CHANNEL_BAD = (0.5, "ab", [1.0, 0.0], [[0.5, 0.6], [0.5, 0.5]],
               [[1.5, -0.5], [0.5, 0.5]])
# Not a pair of reals (lo, hi) with lo <= hi
BOUNDS_BAD = ((1,), "ab", 3, (0.5, None), (math.nan, 1.0), (1.0, 0.5),
              (0.0, 1.0, 2.0))
DISTORTION_BAD = ("x", [[0, 1], [1]], [[0, 1j], [1, 0]], [0, 1],
                  [[math.nan, 1], [1, 0]], [[-1, 1], [1, 0]],
                  [[math.inf, 1], [1, 0]], np.zeros((0, 0)))

# export or method: (call, its well-formed arguments, each one's malformed
# values).
SCALAR_TABLE = {
    "Alphabet": (Alphabet, (2,), (_int(1, 2**16, 2**16 + 1),)),
    # the distortion matrix must be the channel's shape
    "CodecConfig": (
        lambda m, k, q, seed, d: CodecConfig(
            prior=CFG.prior, channel=CFG.channel,
            distortion=DistortionMatrix(d), min_block=m, passes=k,
            precision=q, seed=seed),
        (64, 2, 16, 1, [[0, 1], [1, 0]]),
        (_int(0, 2**32), _int(0, 2**16), _int(1, 25), _int(),
         ([[0, 1, 1], [1, 0, 1], [1, 1, 0]],))),
    "DistortionMatrix": (DistortionMatrix, ([[0, 1], [1, 0]],),
                         (DISTORTION_BAD,)),
    "DistortionMatrix.hamming": (DistortionMatrix.hamming, (2,),
                                 (_int(1, 2**16, 2**16 + 1),)),
    "ErasurePattern": (ErasurePattern, ([1, 3],),
                       ((5, None, ["a"], [0], [2.5], ["3"], [True], [None]),)),
    "ErasureSource.from_string": (ErasureSource.from_string, ("0*1",),
                                  ((None, 5, b"0*1", ["0", "*"], "0x"),)),
    "FeedforwardOracle.emit": (lambda k: _emitted(0).emit(k), (3,),
                               (_int(-1, CODED.size + 1),)),
    "FeedforwardOracle.reveal_range": (
        lambda a, b: _emitted(4).reveal_range(a, b), (1, 3),
        (_int(-1, 4), _int(0, 5))),
    "Frame": (Frame, (3, b""), (_int(-1), ("ab",))),
    "Pmf": (Pmf, ([0.5, 0.5],), (PMF_BAD,)),
    "Pmf.uniform": (Pmf.uniform, (2,), (_int(1, 2**16, 2**16 + 1),)),
    "QuantizedModel": (lambda q: QuantizedModel([32768, 32768], q), (16,),
                       (_int(1, 25),)),
    "SplitMix64": (SplitMix64, (1,), (_int(),)),
    "SplitMix64.fill_u64": (lambda k: SplitMix64(1).fill_u64(k), (3,),
                            (_int(-1),)),
    "TestChannel": (TestChannel, ([[0.9, 0.1], [0.1, 0.9]],), (CHANNEL_BAD,)),
    "TestChannel.bsc": (TestChannel.bsc, (0.11,), (_real(-0.1, 1.1),)),
    "blahut_arimoto": (lambda t: blahut_arimoto(CFG.prior, HAMMING, t),
                       (0.11,), (_real(-0.1, 1.1),)),
    "decode_frame_prefix": (lambda k: decode_frame_prefix(FRAME, MODEL, k),
                            (BITS.size,), (_int(-1),)),
    "is_strongly_typical": (
        lambda delta: is_strongly_typical(SOURCE, CFG.prior, delta), (0.5,),
        (_real(-0.1, 1.1),)),
    "load_model": (load_model, ("binary_hamming",),
                   ((None, 2.5, True, ["binary_hamming"], b"binary_hamming"),)),
    "plan_passes": (lambda n: plan_passes(CFG, n), (1000,), (_int(63),)),
    "quantize": (lambda q: quantize(CFG.prior, q), (16,), (_int(1, 25),)),
    "quantize_channel": (lambda q: quantize_channel(CFG.channel, q), (16,),
                         (_int(1, 25),)),
    "ExperimentSpec": (lambda t, r, d: ExperimentSpec("t", CFG, t, r, d),
                       (1, None, (0.0, 1.0)),
                       (_int(0), BOUNDS_BAD, BOUNDS_BAD)),
    "uniform_source": (uniform_source, (1, 4, 3),
                       (_int(), _int(-1), _int(0, 1, 2**16, 2**32 + 1))),
    # the pad alone: an empty payload whose 64 settled bits are the pad
    "check_unshaped": (lambda s, m: check_unshaped(PAD_PATTERN, s, m),
                       (64, 0), (_int(65, 1000), _int(-3))),
    "write_uvarint": (write_uvarint, (5,), (_int(-1),)),
    "as_int": (lambda v: as_int(v, 0, 9, CodingError, "v"), (3,),
               (_int(-1, 10),)),
    "as_real": (lambda v: as_real(v, 0.0, 1.0, CodingError, "v"), (0.5,),
                (_real(-0.1, 1.1),)),
    "harness_workers": (harness_workers, (2,), (_int(0),)),
    "run_beq_example": (run_beq_example, ("0**1",), ((None, 5, b"0**1"),)),
    "run_duality_example": (run_duality_example, ("0101", (2, 3)),
                            ((None, 5, b"0101", "012"),
                             (None, 5, "23", [0]))),
}

# Exports that take no integer, real number, string or real table: errors,
# constants, records the package builds, symbol arrays, bytes and objects
# that were checked when they were built.
NO_SCALAR = {
    "CausalityError", "CodingError", "ConfigError", "FfscError",
    "ModelError", "QuantizationError", "ShapingError", "StreamFormatError",
    "TruncatedFrameError",
    "ERASED", "HEADER_LEN", "MAGIC", "MAX_PRECISION", "MAX_SYMBOLS",
    "MIN_PRECISION", "PAD_PATTERN", "STREAM_VERSION",
    "DecodeResult", "EncodeResult", "MeasureReport", "Report", "TrialRow",
    "apply_erasures", "as_bytes", "as_symbols", "bec_feedback_send",
    "beq_decode", "beq_encode", "bundled_model_names", "compress",
    "conditional_entropy", "decode", "deshape_raw", "encode", "entropy",
    "erasure_distortion", "estimate_total_samples", "expected_distortion",
    "fnv1a64", "growth_factor", "measure", "model_digest",
    "mutual_information", "read_header", "read_uvarint",
    "run_codec_experiment", "shape",
}

SCALAR_CASES = [
    pytest.param(name, arg, value, id=f"{name}-{arg}-{value!r}")
    for name, (_, _, bads) in SCALAR_TABLE.items()
    for arg, values in enumerate(bads)
    for value in values
]


def test_every_export_takes_scalars_only_through_the_table():
    covered = {name.split(".")[0] for name in SCALAR_TABLE}
    assert not covered & NO_SCALAR
    assert sorted(covered | NO_SCALAR) == sorted(EXPORTS)


@pytest.mark.parametrize("name, arg, value", SCALAR_CASES)
def test_malformed_scalar_raises_a_package_error(name, arg, value):
    call, goods, _ = SCALAR_TABLE[name]
    call(*goods)
    args = list(goods)
    args[arg] = value
    with pytest.raises(FfscError):
        call(*args)


def test_load_model_leaves_a_file_descriptor_alone():
    """An int is refused before any filesystem call, so load_model neither
    reads it as a file descriptor nor closes it."""
    r, w = os.pipe()
    try:
        os.write(w, b"{}")
        os.close(w)
        with pytest.raises(ModelError):
            load_model(r)
        assert os.read(r, 2) == b"{}"
    finally:
        os.close(r)


# -- the alphabet-size limit -----------------------------------------------


def _quantized(rows, size):
    """Uniform-ish rows at the least precision that gives every symbol a
    unit; symbol 0 takes the spare units."""
    precision = max(2, (size - 1).bit_length())
    freq = np.ones((rows, size), dtype=np.int64)
    freq[:, 0] += (1 << precision) - size
    return QuantizedModel(freq, precision)


# table: (rows, symbols) -> the table, whose shape bounds both.
SIZED_TABLES = {
    "Pmf": lambda rows, size: Pmf(np.full(size, 1.0 / size)),
    "TestChannel": lambda rows, size: TestChannel(
        np.full((rows, size), 1.0 / size)),
    "QuantizedModel": _quantized,
}


@pytest.mark.parametrize("name, axis", [
    ("Pmf", 1), ("TestChannel", 0), ("TestChannel", 1),
    ("QuantizedModel", 0), ("QuantizedModel", 1)])
def test_tables_hold_at_most_65535_symbols_and_rows(name, axis):
    """A stream counts symbols and rows in 2 bytes (model_digest), so a
    table of 65 535 is built and one of 65 536 refused, not left to
    overflow when it is coded."""
    build = SIZED_TABLES[name]
    shape = [1 if name == "Pmf" else 2, 2]
    shape[axis] = 2**16 - 1
    build(*shape)
    shape[axis] = 2**16
    with pytest.raises(FfscError):
        build(*shape)


def test_numpy_integers_are_stored_as_python_ints():
    cfg = CodecConfig(prior=CFG.prior, channel=CFG.channel,
                      distortion=CFG.distortion, min_block=np.int64(64),
                      passes=np.int64(2), precision=np.int64(16),
                      seed=np.uint64(2**64 - 1))
    stored = (cfg.min_block, cfg.passes, cfg.precision, cfg.seed,
              Alphabet(np.int64(3)).size,
              QuantizedModel([4, 4], np.int64(3)).precision)
    assert stored == (64, 2, 16, 2**64 - 1, 3, 3)
    assert {type(v) for v in stored} == {int}
