"""Erasure-channel duality pair.

Quantizing a {0, 1, don't-care} source with unit-lag feedforward is the
mirror image of sending bits over an erasure channel with feedback:

* The quantizer's encoder keeps exactly the constrained (non-*) values.
  Its decoder emits the current message bit at every step and advances
  only after the feedforward sample shows the step was constrained.
* The channel's transmitter repeats the current message bit until the
  (feedback-known) channel delivers it; the receiver keeps the
  delivered symbols, which is the quantizer's encoder, ``beq_encode``.

Both sides of the pair touch n + e channel uses / n source samples for
an n-bit message with e erasures, and both transcripts coincide on the
worked 8-sample instance tested in the acceptance suite.

The don't-care symbol is the value 2 in a 3-ary alphabet; reconstructions
are binary.  Distortion charges nothing for don't-care positions.
Messages and channel inputs are bits: 1-D ``uint8`` arrays of 0s and 1s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import as_int, as_symbols
from .codec import FeedforwardOracle
from .errors import CodingError, ModelError
from .model import DistortionMatrix

__all__ = [
    "ERASED",
    "ErasureSource",
    "ErasurePattern",
    "erasure_distortion",
    "beq_encode",
    "beq_decode",
    "bec_feedback_send",
    "apply_erasures",
]

ERASED = 2  # alphabet value of the don't-care / erasure symbol "*"

_CHARS = {"0": 0, "1": 1, "*": ERASED}
_SYMS = {v: k for k, v in _CHARS.items()}


def erasure_distortion() -> DistortionMatrix:
    """3x3 distortion: binary mismatches cost 1, don't-care costs 0."""
    d = np.array([
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
    ])
    return DistortionMatrix(d)


@dataclass(frozen=True, eq=False)
class ErasureSource:
    """A sequence over {0, 1, *} with its length and erasure count."""

    seq: np.ndarray
    n: int = field(init=False)
    e: int = field(init=False)

    def __post_init__(self):
        s = as_symbols(self.seq, ERASED + 1, ModelError, "seq").copy()
        s.setflags(write=False)  # the copy: the caller's array stays writable
        object.__setattr__(self, "seq", s)
        object.__setattr__(self, "n", int(s.size))
        object.__setattr__(self, "e", int((s == ERASED).sum()))

    @classmethod
    def from_string(cls, text: str) -> "ErasureSource":
        try:
            return cls(np.array([_CHARS[c] for c in text.strip()], dtype=np.int64))
        except KeyError as exc:
            raise ModelError(f"bad erasure-source character {exc.args[0]!r}") from exc

    def to_string(self) -> str:
        return "".join(_SYMS[int(v)] for v in self.seq)


@dataclass(frozen=True)
class ErasurePattern:
    """1-based channel-use indices that the channel erases."""

    indices: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "indices", frozenset(
            as_int(i, 1, None, ModelError, "erasure index")
            for i in self.indices))

    @classmethod
    def of(cls, *indices: int) -> "ErasurePattern":
        return cls(frozenset(indices))


def beq_encode(src: ErasureSource) -> np.ndarray:
    """Keep the constrained values, in order: exactly n - e bits."""
    return src.seq[src.seq != ERASED].astype(np.uint8)


def beq_decode(m: np.ndarray, oracle: FeedforwardOracle) -> np.ndarray:
    """Reconstruct a {0,1,*} source from its constrained bits m, a 1-D
    array of 0s and 1s.

    At each step the current message bit is emitted; the feedforward
    sample then tells the decoder whether that step was constrained
    (advance) or don't-care (stay).  Distortion is zero on every
    constrained position because the emitted bit *was* that position's
    value.  Exhausted messages emit 0 — any bit is free on don't-cares.
    """
    m = as_symbols(m, 2, CodingError, "message")
    n = len(oracle)
    out = np.zeros(n, dtype=np.int64)
    k = 0
    for i in range(n):
        out[i] = m[k] if k < m.size else 0
        oracle.emit(1)
        x_i = oracle.reveal_range(i, i + 1)[0]
        if x_i != ERASED:
            if k >= m.size:
                raise CodingError(
                    f"message exhausted at sample {i}: more constrained "
                    f"positions than message bits"
                )
            k += 1
    if k != m.size:
        raise CodingError(
            f"message has {m.size} bits but only {k} constrained positions"
        )
    return out


def bec_feedback_send(
    message: np.ndarray, pattern: ErasurePattern
) -> tuple[np.ndarray, int]:
    """Repeat each bit until the channel delivers it; feedback tells when.

    Returns (channel inputs as a uint8 bit array, number of channel
    uses).  Uses equal message length plus the number of erasures that
    actually occurred.  A message that is not bits raises CodingError.
    """
    message = as_symbols(message, 2, CodingError, "message")
    inputs = []
    t = 1
    k = 0
    while k < len(message):
        inputs.append(message[k])
        if t not in pattern.indices:
            k += 1
        t += 1
    return np.array(inputs, dtype=np.uint8), len(inputs)


def apply_erasures(inputs: np.ndarray, pattern: ErasurePattern) -> ErasureSource:
    """Channel action: replace erased uses with * (1-based indices)."""
    seq = as_symbols(inputs, 2, ModelError, "channel inputs").copy()
    for i in pattern.indices:
        if i <= seq.size:
            seq[i - 1] = ERASED
    return ErasureSource(seq)
