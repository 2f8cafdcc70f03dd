"""The recursive feedforward codec.

The encoder works on a reversed copy of the source.  Pass 1 turns the
first M reversed samples into a seeded "noisy" block (one draw from the
quantized test-channel row of each sample).  Every later pass
entropy-codes the previous block's reconstruction and *shapes* those
bits onto fresh source samples, so each pass's block carries the
previous one inside it.  Only the final block's frame is transmitted.

The decoder unravels this with the unit-lag side information: the final
frame decodes to the block that sits *first* in original time.  It
emits those reconstructions, is then allowed to read the matching true
samples, deshapes the pair to recover the previous frame, and repeats.
The reconstruction therefore streams out in original time order, every
oracle read is strictly behind the emission high-water mark, and the
seed block, which is never deshaped, is never read.

Both sides hold reconstructions at the width of the channel's output
alphabet, ``np.min_scalar_type(size - 1)``: uint8 up to 256 symbols and
uint16 up to ``model.MAX_SYMBOLS``.  The encoder's reversed source is
narrowed to the width of the input alphabet, which a rectangular
channel may make narrower, only after its range check; the oracle's
samples are read as the oracle holds them.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .bits import as_bytes, as_int, as_symbols
from .coder import (
    MAX_PRECISION,
    MIN_PRECISION,
    QuantizedModel,
    compress,
    decode_frame_prefix,
    model_digest,
    quantize,
    quantize_channel,
)
from .errors import CausalityError, CodingError, ConfigError, StreamFormatError
from .model import (
    DistortionMatrix,
    Pmf,
    TestChannel,
    blahut_arimoto,
    growth_factor,
    is_strongly_typical,
)
from .rng import SplitMix64
from .shaping import check_unshaped, deshape_raw, shape

__all__ = [
    "CodecConfig",
    "FeedforwardOracle",
    "EncodeResult",
    "DecodeResult",
    "MeasureReport",
    "encode",
    "decode",
    "plan_passes",
    "estimate_total_samples",
    "measure",
    "read_header",
    "MAGIC",
    "STREAM_VERSION",
    "HEADER_LEN",
]

MAGIC = b"FFSC"
STREAM_VERSION = 6
# magic, version, q, K, M, model digest, CRC-32 of the reconstruction
_HEADER_FMT = "<4sBBHIQI"
HEADER_LEN = struct.calcsize(_HEADER_FMT)  # 24 bytes
# Typicality tolerance for EncodeResult.atypical_blocks; moves no byte.
_TYPICAL_DELTA = 0.02


@dataclass(frozen=True, eq=False)
class CodecConfig:
    prior: Pmf
    channel: TestChannel
    distortion: DistortionMatrix
    min_block: int = 4096
    passes: int = 5
    precision: int = 16
    seed: int = 1

    def __post_init__(self):
        # the header carries q in 1 byte, K in 2 and M in 4
        for name, lo, hi in (("min_block", 1, 2**32 - 1),
                             ("passes", 1, 2**16 - 1),
                             ("precision", MIN_PRECISION, MAX_PRECISION),
                             ("seed", None, None)):
            object.__setattr__(self, name, as_int(getattr(self, name), lo, hi,
                                                  ConfigError, name))
        if self.distortion.entries.shape != self.channel.rows.shape:
            raise ConfigError("distortion matrix shape must match the channel")
        growth_factor(self.prior, self.channel)  # rejects degenerate channels

    def quantized(self) -> tuple[QuantizedModel, QuantizedModel]:
        """The marginal's one-row table and the channel's (read-only),
        shared by every config of this prior, channel and precision."""
        return _quantized(self.prior, self.channel, self.precision)


# Keyed by the prior and channel objects (read-only, compared by
# identity, kept by ``replace``), so reseeded configs share one pair of
# tables.  The cache holds its keys, so no identity is reused while
# cached.  The bound keeps a process that codes many models from holding
# them all: tables outlive their configs until 8 later models evict them.
@lru_cache(maxsize=8)
def _quantized(prior: Pmf, channel: TestChannel, precision: int):
    return (quantize(channel.marginal(prior), precision),
            quantize_channel(channel, precision))


class FeedforwardOracle:
    """Releases true source samples strictly behind the emission front.

    The decoder calls ``emit(k)`` after producing k reconstructions and
    may then ``reveal`` indices below the new high-water mark only.
    Every access is recorded so tests can audit the unit-lag discipline
    after the fact.
    """

    def __init__(self, source):
        # No bound: deshape_raw and measure check the samples they read
        # against their own alphabets, and decode reads no seed sample.
        self._src = as_symbols(source, None, ConfigError, "source")
        self.emitted = 0
        self.audit_log: list[tuple[int, int, int]] = []

    def __len__(self) -> int:
        return int(self._src.size)

    def emit(self, count: int):
        self.emitted += as_int(count, 0, self._src.size - self.emitted,
                               CausalityError, "emit count")

    def reveal_range(self, start: int, stop: int) -> np.ndarray:
        start = as_int(start, 0, None, CausalityError, "reveal start")
        stop = as_int(stop, start, None, CausalityError, "reveal stop")
        if stop > self.emitted:
            raise CausalityError(
                f"reveal of sample {stop - 1} before it is earned: only "
                f"{self.emitted} reconstructions emitted (unit lag violated)"
            )
        self.audit_log.append((self.emitted, start, stop))
        return self._src[start:stop]

    def audit_clean(self) -> bool:
        """True iff every recorded access obeyed the unit-lag rule."""
        return all(stop <= emitted for emitted, _, stop in self.audit_log)


@dataclass(frozen=True, eq=False)
class EncodeResult:
    bitstream: bytes
    # encoder-internal reconstruction, original order, at the width of
    # the channel's output alphabet (uint8 up to 256 symbols, else uint16)
    xhat: np.ndarray
    n: int
    pass_lengths: list[int]
    rate: float
    total_bits: int
    atypical_blocks: list[int] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class DecodeResult:
    xhat: np.ndarray          # as EncodeResult.xhat: same values, same dtype
    pass_lengths: list[int]
    n: int
    total_bits: int
    rate: float


@dataclass(frozen=True, eq=False)
class MeasureReport:
    per_sample_distortion: np.ndarray
    mean_distortion: float
    rate: float
    rd_reference: float
    gap: float


def _sample_rows(rng: SplitMix64, cum: np.ndarray, q: int, count: int,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """The package's one sampler: `count` inverse-CDF draws as int64
    symbols.  Draw i counts the boundaries cum[r, 1:-1] at or below u,
    the top q bits of rng's next word, where r is rows[i] (or 0 if rows
    is None) and each row of the integer CDF `cum` ends at 2^q, so a
    zero-frequency symbol is never drawn.  Boundaries are compared one
    column at a time, building no (count, size + 1) table."""
    u = rng.fill_u64(count)
    u >>= np.uint64(64 - q)
    u = u.view(np.int64)  # below 2^q, so the same values
    sym = np.zeros(count, dtype=np.int64)
    for j in range(1, cum.shape[1] - 1):
        sym += u >= (cum[0, j] if rows is None else cum[rows, j])
    return sym


def _crc(xhat: np.ndarray) -> int:
    """CRC-32 of xhat as <u2 symbols (``model.MAX_SYMBOLS`` bounds them)."""
    return zlib.crc32(xhat.astype("<u2", copy=False))


def _pack_header(cfg: CodecConfig, digest: int, crc: int) -> bytes:
    return struct.pack(_HEADER_FMT, MAGIC, STREAM_VERSION, cfg.precision,
                       cfg.passes, cfg.min_block, digest, crc)


def encode(source, cfg: CodecConfig) -> EncodeResult:
    """Compress the last n samples of source, where n is data-dependent.

    The amount consumed is roughly ``estimate_total_samples(cfg)``; the
    supplied buffer must cover it or a ShapingError("side provider
    exhausted") is raised.
    """
    src = as_symbols(source, cfg.prior.probs.size, CodingError, "source")
    M = cfg.min_block
    if src.size < M:
        raise CodingError(
            f"source exhausted: {src.size} samples < min_block {M}"
        )
    marg, cond = cfg.quantized()
    # checked above, so the cast to the source alphabet's width is exact
    rev = src[::-1].astype(np.min_scalar_type(cfg.prior.probs.size - 1))
    width = np.min_scalar_type(marg.size - 1)  # the reconstruction alphabet

    blocks = [_sample_rows(SplitMix64(cfg.seed), cond.cum, cond.precision, M,
                           rev[:M]).astype(width)]
    frame = compress(blocks[0], marg)
    edges = [0, M]  # block k codes rev[edges[k]:edges[k + 1]]
    for _ in range(1, cfg.passes):
        bits = np.unpackbits(np.frombuffer(frame.to_bytes(), np.uint8))
        symbols, consumed = shape(bits, rev[edges[-1]:], cond)
        blocks.append(symbols)
        edges.append(edges[-1] + consumed)
        frame = compress(symbols, marg)
    atypical = [k for k in range(1, len(edges)) if not is_strongly_typical(
        rev[edges[k - 1]:edges[k]], cfg.prior, _TYPICAL_DELTA)]

    n = edges[-1]
    xhat = np.empty(n, dtype=width)
    for block, start, stop in zip(blocks, edges, edges[1:]):
        xhat[n - stop:n - start] = block[::-1]
    header = _pack_header(cfg, model_digest(marg, cond), _crc(xhat))
    stream = header + frame.to_bytes()
    total_bits = 8 * len(stream)
    return EncodeResult(
        bitstream=stream,
        xhat=xhat,
        n=n,
        pass_lengths=[len(b) for b in blocks],
        rate=total_bits / n,
        total_bits=total_bits,
        atypical_blocks=atypical,
    )


def read_header(stream: bytes) -> tuple[int, int, int, int, int]:
    """Check a stream's length, magic and version; return its header
    fields (precision q, passes K, min_block M, model digest, CRC-32 of
    the reconstruction).  No seed: decode rebuilds the seed block."""
    stream = as_bytes(stream, StreamFormatError, "stream")
    if len(stream) < HEADER_LEN:
        raise StreamFormatError("stream shorter than its header")
    magic, version, *fields = struct.unpack_from(_HEADER_FMT, stream)
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}")
    if version != STREAM_VERSION:
        raise StreamFormatError(f"unsupported stream version {version}")
    return tuple(fields)


def _parse_header(stream: bytes, cfg: CodecConfig, digest: int) -> int:
    """Check the header against cfg and digest; return its CRC-32."""
    q, k, m, got_digest, crc = read_header(stream)
    if (q, k, m) != (cfg.precision, cfg.passes, cfg.min_block):
        raise StreamFormatError(
            f"stream parameters (q={q}, K={k}, M={m}) do not match the "
            f"configuration (q={cfg.precision}, K={cfg.passes}, "
            f"M={cfg.min_block})"
        )
    if got_digest != digest:
        raise StreamFormatError(
            "model digest mismatch: stream was produced with different "
            "probability tables"
        )
    return crc


def decode(stream: bytes, oracle: FeedforwardOracle, cfg: CodecConfig) -> DecodeResult:
    """Invert encode() using unit-lag feedforward side information.

    The oracle is read only to deshape blocks; ``measure`` scores the
    reconstruction against the source."""
    stream = as_bytes(stream, StreamFormatError, "stream")
    marg, cond = cfg.quantized()
    crc = _parse_header(stream, cfg, model_digest(marg, cond))
    frame_bytes = stream[HEADER_LEN:]

    # Every valid frame's symbols are emitted to the oracle, so none
    # declares more than it has left.
    block, used = decode_frame_prefix(frame_bytes, marg,
                                      len(oracle) - oracle.emitted)
    if used != len(frame_bytes):
        raise StreamFormatError(
            f"final frame occupies {used} bytes but the stream carries "
            f"{len(frame_bytes)}"
        )

    chunks = []  # the blocks in original time order
    base = 0
    for _ in range(cfg.passes - 1):
        chunks.append(block[::-1])
        oracle.emit(block.size)
        x_chunk = oracle.reveal_range(base, base + block.size)
        base += block.size
        data, settled = deshape_raw(block, x_chunk[::-1], cond)
        block, used = decode_frame_prefix(data, marg,
                                          len(oracle) - oracle.emitted)
        check_unshaped(data, settled, 8 * used)

    if block.size != cfg.min_block:
        raise StreamFormatError(
            f"seed block has {block.size} symbols, expected min_block "
            f"{cfg.min_block}"
        )
    chunks.append(block[::-1])
    oracle.emit(block.size)

    xhat = np.concatenate(chunks)
    if _crc(xhat) != crc:
        raise StreamFormatError("reconstruction fails the stream's CRC-32")
    n = int(xhat.size)
    total_bits = 8 * len(stream)
    return DecodeResult(
        xhat=xhat,
        pass_lengths=[int(c.size) for c in reversed(chunks)],
        n=n,
        total_bits=total_bits,
        rate=total_bits / n,
    )


def _block_lengths(cfg: CodecConfig, passes: int) -> list[float]:
    """Predicted lengths of the first `passes` blocks: min_block, then
    each rho times the one before, rho the growth factor."""
    rho = growth_factor(cfg.prior, cfg.channel)
    return list(accumulate(repeat(rho, passes - 1), mul,
                           initial=float(cfg.min_block)))


def plan_passes(cfg: CodecConfig, target_n: int) -> int:
    """Smallest pass count whose predicted total covers target_n samples."""
    target_n = as_int(target_n, cfg.min_block, None, ConfigError, "target_n")
    for k, total in enumerate(accumulate(_block_lengths(cfg, 64)), start=1):
        if total >= target_n:
            return k
    raise ConfigError("pass count exceeds 64; check the growth factor")


def estimate_total_samples(cfg: CodecConfig) -> int:
    """Predicted n for a full K-pass run, the sum of its block lengths.
    Raises ConfigError if the prediction overflows a float."""
    # left to right, as in plan_passes (``sum`` compensates from Python 3.12)
    *_, total = accumulate(_block_lengths(cfg, cfg.passes))
    if total == float("inf"):
        raise ConfigError(f"{cfg.passes} passes predict more samples than "
                          f"a float can count")
    return int(total)


def measure(x, result: DecodeResult, d: DistortionMatrix) -> MeasureReport:
    """Score a decode against the true source.

    The rate-distortion reference is computed at the *measured*
    distortion with the empirical distribution of x, so the gap column
    answers: how far is this run from the best possible rate for what
    it actually delivered?
    """
    size, cols = d.entries.shape
    x = as_symbols(x, size, ConfigError, "source")
    xhat = as_symbols(result.xhat, cols, ConfigError, "reconstruction")
    if x.size != xhat.size:
        raise ConfigError("source length does not match the reconstruction")
    per_sample = d.entries[x, xhat]
    mean_d = float(per_sample.mean()) if x.size else 0.0
    counts = np.bincount(x, minlength=size).astype(np.float64)
    prior = Pmf(counts / max(x.size, 1))
    _, rd_ref, _ = blahut_arimoto(prior, d, mean_d)
    return MeasureReport(
        per_sample_distortion=per_sample,
        mean_distortion=mean_d,
        rate=result.rate,
        rd_reference=rd_ref,
        gap=result.rate - rd_ref,
    )
