"""Probability models, entropies, typicality, and a rate-distortion solver.

Everything here is base-2: entropies and rates are in bits per symbol,
with the convention 0·log 0 = 0.  All containers are immutable after
construction (arrays are frozen), so they can be shared freely across
threads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .bits import as_int, as_real, as_symbols
from .errors import ModelError

__all__ = [
    "MAX_SYMBOLS",
    "Alphabet",
    "Pmf",
    "TestChannel",
    "DistortionMatrix",
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "expected_distortion",
    "blahut_arimoto",
    "is_strongly_typical",
    "growth_factor",
    "load_model",
    "bundled_model_names",
]

_LOG2 = np.log(2.0)

# The most symbols, and the most rows, of any table: the model digest
# writes both counts in 2 bytes (``coder.model_digest``), which also
# keeps every symbol within the CRC's <u2 (``codec._crc``).
MAX_SYMBOLS = 2**16 - 1


def _prob_table(values, ndim: int, name: str, pmf: bool = True) -> np.ndarray:
    """A read-only float64 copy of `values`, a non-empty array of rank
    `ndim` with finite entries >= 0.  With `pmf`, its rows (along the
    last axis) are pmfs: entries at most 1, summing to 1 within 1e-12,
    and every axis holds 2 to ``MAX_SYMBOLS`` entries.  Raises
    ModelError otherwise."""
    stem = f"{name} must be a non-empty {ndim}-D array of real numbers"
    try:
        a = np.asarray(values)
    except (TypeError, ValueError):  # a ragged nested sequence
        raise ModelError(f"{stem}, not a ragged sequence") from None
    if a.ndim != ndim or a.dtype.kind not in "iuf" or not a.size:
        raise ModelError(f"{stem}, not a {a.dtype} array of shape {a.shape}")
    if pmf and not all(2 <= n <= MAX_SYMBOLS for n in a.shape):
        raise ModelError(f"{name} axes must hold 2 to {MAX_SYMBOLS} "
                         f"entries, not shape {a.shape}")
    p = np.array(a, dtype=np.float64)  # the copy
    hi = 1.0 if pmf else np.inf
    if not (np.isfinite(p) & (0 <= p) & (p <= hi)).all():  # NaN fails all
        raise ModelError(f"{name} entries must be finite, >= 0"
                         + (" and <= 1" if pmf else ""))
    sums = p.sum(axis=-1)
    if pmf and (np.abs(sums - 1.0) > 1e-12).any():
        raise ModelError(f"{name} rows sum to {sums}, not 1")
    p.setflags(write=False)
    return p


@dataclass(frozen=True, eq=False)
class Alphabet:
    """A finite symbol set {0, 1, ..., size-1}, with 2 <= size <=
    ``MAX_SYMBOLS``."""

    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", as_int(
            self.size, 2, MAX_SYMBOLS, ModelError, "alphabet size"))


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function: ``Pmf(probs)`` keeps a read-only copy
    of a 1-D pmf, whose length sets the alphabet."""

    probs: np.ndarray
    alphabet: Alphabet = field(init=False)

    def __post_init__(self):
        p = _prob_table(self.probs, 1, "pmf")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "alphabet", Alphabet(p.size))

    @classmethod
    def uniform(cls, size: int) -> "Pmf":
        size = as_int(size, 2, MAX_SYMBOLS, ModelError, "alphabet size")
        return cls(np.full(size, 1.0 / size))


@dataclass(frozen=True, eq=False)
class TestChannel:
    """Conditional distribution p(output | input): ``TestChannel(rows)``
    keeps a read-only copy of one pmf row per input symbol, whose shape
    sets the input and output alphabets."""

    __test__ = False  # keep pytest from collecting this as a test class

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _prob_table(self.rows, 2, "channel"))

    @classmethod
    def bsc(cls, crossover: float) -> "TestChannel":
        """Binary symmetric channel with the given crossover probability."""
        e = as_real(crossover, 0, 1, ModelError, "crossover")
        return cls([[1 - e, e], [e, 1 - e]])

    def marginal(self, prior: Pmf) -> Pmf:
        _check_match(prior, self)
        return Pmf(prior.probs @ self.rows)


@dataclass(frozen=True, eq=False)
class DistortionMatrix:
    """Per-pair distortion d(x, x_hat) >= 0 with a finite maximum."""

    entries: np.ndarray
    d_max: float = field(init=False)

    def __post_init__(self):
        d = _prob_table(self.entries, 2, "distortion matrix", pmf=False)
        object.__setattr__(self, "entries", d)
        object.__setattr__(self, "d_max", float(d.max()))

    @classmethod
    def hamming(cls, size: int) -> "DistortionMatrix":
        size = as_int(size, 2, MAX_SYMBOLS, ModelError, "alphabet size")
        return cls(1.0 - np.eye(size))


def _check_match(prior: Pmf, ch: TestChannel):
    if prior.probs.size != len(ch.rows):
        raise ModelError(
            f"prior alphabet {prior.probs.size} != channel input "
            f"{len(ch.rows)}"
        )


# -- entropic quantities ----------------------------------------------

def entropy(p: Pmf) -> float:
    """Shannon entropy in bits."""
    q = p.probs[p.probs > 0]
    return float(-(q * np.log(q)).sum() / _LOG2)


def conditional_entropy(ch: TestChannel, prior: Pmf) -> float:
    """H(output | input) under the given input distribution, in bits."""
    _check_match(prior, ch)
    w = ch.rows
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(w > 0, w * np.log(w), 0.0)
    return float(-(prior.probs @ t.sum(axis=1)) / _LOG2)


def mutual_information(prior: Pmf, ch: TestChannel) -> float:
    """I(input; output) = H(output) - H(output | input), in bits."""
    return entropy(ch.marginal(prior)) - conditional_entropy(ch, prior)


def expected_distortion(prior: Pmf, ch: TestChannel, d: DistortionMatrix) -> float:
    _check_match(prior, ch)
    if d.entries.shape != ch.rows.shape:
        raise ModelError(
            f"distortion matrix {d.entries.shape} does not match channel "
            f"{ch.rows.shape}"
        )
    return float(prior.probs @ (ch.rows * d.entries).sum(axis=1))


def growth_factor(prior: Pmf, ch: TestChannel) -> float:
    """H(output) / H(output | input): the per-pass block expansion ratio.

    Deterministic channels make the conditional entropy zero and the
    recursion degenerate, so they are rejected rather than returning inf.
    """
    h_cond = conditional_entropy(ch, prior)
    if h_cond <= 0.0:
        raise ModelError(
            "infinite growth factor: the channel is deterministic "
            "(H(output|input)=0); use a plain lossless coder instead"
        )
    return entropy(ch.marginal(prior)) / h_cond


# -- typicality --------------------------------------------------------

def is_strongly_typical(seq, p: Pmf, delta: float) -> bool:
    """True iff every empirical frequency is within delta of its probability
    and no zero-probability symbol occurs.  A symbol outside p's alphabet
    raises ModelError rather than counting as atypical, as does a delta
    that is not a real number in [0, 1]."""
    delta = as_real(delta, 0, 1, ModelError, "delta")
    size = p.probs.size
    seq = as_symbols(seq, size, ModelError, "sequence")
    tol = delta * (p.probs > 0)  # 0 where p is: such a symbol may not occur
    freqs = np.bincount(seq, minlength=size) / max(seq.size, 1)
    return bool((np.abs(freqs - p.probs) <= tol).all())


# -- Blahut-Arimoto ----------------------------------------------------

# Floor on every output probability inside a slope solve.  It keeps each
# row's normaliser at least this large (the row's best column carries
# kernel weight 1), so no row underflows to 0/0 at a steep slope, and it
# is far below any mass that can move a rate or a distortion.
_Q_FLOOR = 1e-300

# Convergence tolerance (bits): every rate that blahut_arimoto's slope
# search returns is within _TOL of R(D), by Blahut's lower bound.  Each
# slope solve stops once its channel is within _TOL/4 of its slope's
# optimum (log2 max_j c_j <= _TOL/4, ``_C_STOP``).  A slope solve that
# has not after _MAX_ITER iterations, or a search that has not met _TOL
# after _MAX_SOLVES solves, raises ModelError.
_TOL = 1e-9
_C_STOP = 2.0 ** (_TOL / 4)
_MAX_ITER = 10_000
_MAX_SOLVES = 200

# Share of the uniform pmf mixed into every starting marginal.  Exact
# zeros (or floored underflows) in a warm start would otherwise stay
# (nearly) dead at every later slope, as multiplicative updates cannot
# revive them, and the search would close its bracket on a false jump.
_WARM_MIX = 0.01

# Starting exponent g of the over-relaxed update q <- q * c**g,
# normalised, that replaces Blahut's q <- q * c (Yu, IEEE T-IT 56(7),
# 2010).  g doubles after each step that less than halves max_j c_j - 1,
# and comes back to _RELAX, with Blahut's step taken instead, after a
# step that loses ground.
_RELAX = 1.6


def _ba_solve_slope(
    prior: np.ndarray, d: np.ndarray, beta: float, q0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Blahut's fixed-slope iteration, with the over-relaxed update of
    ``_RELAX``.  Returns (channel rows, their output marginal, L).

    Starts from q0 mixed with 1% of the uniform pmf.  At an output
    marginal q the channel is w_xj = q_j 2^(-beta*d_xj) / Z_x, and c_j =
    sum_x p_x 2^(-beta*d_xj) / Z_x is w's output marginal over q.  By
    Blahut's theorem each q gives the supporting line R(D') >= L -
    beta*D', with L = beta*sum_x p_x*dmin_x - sum_x p_x*log2 Z_x - log2
    max_j c_j, while w's I + beta*D is at most L + log2 max_j c_j.  The
    solve returns the first w with log2 max_j c_j <= ``_TOL``/4, so w is
    within that of the curve.  Each row's kernel is scaled so that its
    largest entry is 1 (Z_x above is the scaled row's), which leaves the
    channel unchanged and keeps every iterate to a handful of array
    operations.
    """
    d_min = d.min(axis=1, keepdims=True)
    q = (1.0 - _WARM_MIX) * q0 + _WARM_MIX / q0.size
    gamma, relaxed = _RELAX, False
    with np.errstate(over="ignore", invalid="ignore"):
        kern = np.exp2(-beta * (d - d_min))
        for _ in range(_MAX_ITER):
            z = kern @ q
            # sum_x p_x ln Z_x: Blahut's steps raise it, so a relaxed step
            # that does not (or that overflowed to NaN) gives way to his.
            f = float(prior @ np.log(z))
            if relaxed and not f >= f_last:
                q = np.maximum(q_last * c, _Q_FLOOR)
                gamma, relaxed = _RELAX, False
                continue
            c = (prior / z) @ kern
            c_max = float(c.max())
            if c_max <= _C_STOP:
                line = (beta * float(prior @ d_min[:, 0])
                        - (f + np.log(c_max)) / _LOG2)
                return q * kern / z[:, None], np.maximum(q * c, _Q_FLOOR), line
            if relaxed and c_max - 1.0 > 0.5 * (c_last - 1.0):
                gamma *= 2.0
            q_last, f_last, c_last, relaxed = q, f, c_max, True
            q = q * c**gamma
            q = np.maximum(q / q.sum(), _Q_FLOOR)
    raise ModelError(
        f"rate-distortion solver did not converge in {_MAX_ITER} iterations "
        f"(log2 max c {np.log2(c_max):.3g}, slope {beta:.6g})"
    )


def _illinois(lo: float, hi: float, g_lo: float, g_hi: float):
    """Illinois steps of regula falsi on a non-increasing g with g(lo) > 0
    >= g(hi): yields each next point and is sent g there.  When the same
    end moves twice running, the other end's g is halved, so both ends
    close in; a point outside the open bracket becomes the midpoint."""
    side = 0
    while True:
        x = lo + (hi - lo) * g_lo / (g_lo - g_hi)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        g = yield x
        if g > 0:
            lo, g_lo = x, g
            if side > 0:
                g_hi *= 0.5
            side = 1
        else:
            hi, g_hi = x, g
            if side < 0:
                g_lo *= 0.5
            side = -1


def _one_step_slope(
    weighted_d: np.ndarray, d: np.ndarray, target_D: float
) -> float:
    """Slope at which one Blahut update from the uniform marginal meets
    ``target_D``, to about 1e-12 relative.

    That update's channel is the row-normalised kernel 2^(-beta*d); its
    distortion falls as beta grows.  It is the exact optimum when the
    optimal output marginal is uniform, as in symmetric problems.  For
    Hamming distortion with D <= (m-1)*min p its slope is the optimal
    slope for any prior, as both solve 2^-beta = D/((m-1)(1-D)).
    Doubling brackets the crossing and Illinois steps close it; no Blahut
    iterations are run.
    """
    d_rel = d - d.min(axis=1, keepdims=True)

    def g(beta):
        k = np.exp2(-beta * d_rel)
        k /= k.sum(axis=1, keepdims=True)
        return float(np.vdot(weighted_d, k)) - target_D

    lo, hi = 0.0, 1.0
    g_lo, g_hi = g(lo), g(hi)
    while g_hi > 0 and hi < 2.0**60:
        lo, hi, g_lo = hi, 2.0 * hi, g_hi
        g_hi = g(hi)
    if g_hi > 0:
        return hi
    steps = _illinois(lo, hi, g_lo, g_hi)
    beta = next(steps)
    for _ in range(200):
        g_beta = g(beta)
        if g_beta == 0.0:
            break
        beta, last = steps.send(g_beta), beta
        if abs(beta - last) <= 1e-12 * beta:
            break
    return beta


def _zero_rate_point(prior: Pmf, d: DistortionMatrix) -> tuple[int, float]:
    """The zero-rate end of R(D): the best constant reproduction j and
    its distortion, min_j sum_x p_x d_xj (the lowest such j on a tie).
    Every level at or above it has rate 0."""
    col_cost = prior.probs @ d.entries
    j = int(np.argmin(col_cost))
    return j, float(col_cost[j])


def blahut_arimoto(
    prior: Pmf, d: DistortionMatrix, target_D: float
) -> tuple[TestChannel, float, float]:
    """Rate-distortion point at the requested distortion level, with its
    rate within ``_TOL`` bits of R(D).

    Runs Blahut's alternating minimisation in the Lagrangian (slope)
    parameterisation and searches the slope until a mixture of two
    channels, one on each side of ``min(target_D, distortion of the
    zero-rate point)``, is certified.  Before any slope solve lands on a
    side, that side's channel is the zero-rate channel (slope 0, above
    the target) or the best-per-row channel (infinite slope, below it).
    The first slope solve, from the uniform pmf, is at
    ``_one_step_slope``, the answer for symmetric problems and for
    Hamming distortion with D <= (m-1)*min p.  While the side below the
    target has no solve, each next slope is the last one times 1 + s,
    with s = 1e-6 growing eightfold per solve; after that, Illinois steps
    of regula falsi on D(slope) - target_D close the bracket.  Each later
    slope solve starts from the previous one's output marginal, mixed
    with 1% of the uniform pmf.

    After each solve the two sides' channels are mixed to meet the target
    (distortion is linear in the channel), and the search stops once the
    mixture's I(X;X̂) is within ``_TOL`` of the best lower bound on
    R(target_D) that the solves' supporting lines give (Blahut, IEEE
    T-IT 18(4), 1972).  Returns ``(channel, R, D)``: R is that mixture's
    ``mutual_information`` in bits/symbol and D its
    ``expected_distortion``.
    """
    p = prior.probs
    dm = np.asarray(d.entries, dtype=np.float64)
    if dm.shape[0] != p.size:
        raise ModelError("distortion matrix rows must match prior alphabet")
    target_D = as_real(target_D, 0, d.d_max, ModelError, "target distortion")
    rows, n_out = dm.shape

    j_star, d_above = _zero_rate_point(prior, d)
    w_above = np.zeros((rows, n_out))
    w_above[:, j_star] = 1.0
    if target_D >= d_above:
        return TestChannel(w_above), 0.0, d_above

    # Maximum-rate endpoint: deterministic best-per-row reproduction.
    row_best = dm.argmin(axis=1)
    d_below = float(p @ dm[np.arange(rows), row_best])
    w_below = np.zeros((rows, n_out))
    w_below[np.arange(rows), row_best] = 1.0
    if target_D <= d_below + 1e-15:
        ch = TestChannel(w_below)
        return ch, mutual_information(prior, ch), expected_distortion(prior, ch, d)

    # A channel w's distortion is vdot(weighted_d, w).
    weighted_d = p[:, None] * dm
    lo, hi, best = 0.0, np.inf, 0.0  # best: the highest bound on R(target_D)
    beta = _one_step_slope(weighted_d, dm, target_D)
    q = np.full(n_out, 1.0 / n_out)
    step, steps = 1e-6, None
    for _ in range(_MAX_SOLVES):
        w, q, line = _ba_solve_slope(p, dm, beta, q)
        dist = float(np.vdot(weighted_d, w))
        best = max(best, line - beta * target_D)
        if dist > target_D:
            w_above, d_above, lo = w, dist, beta
        else:
            w_below, d_below, hi = w, dist, beta
        lam = (target_D - d_below) / (d_above - d_below)
        ch = TestChannel(lam * w_above + (1.0 - lam) * w_below)
        rate = mutual_information(prior, ch)
        if rate - best <= _TOL:
            return ch, rate, expected_distortion(prior, ch, d)
        if hi == np.inf:
            beta, step = lo * (1.0 + step), 8.0 * step
        elif steps is None:
            steps = _illinois(lo, hi, d_above - target_D, d_below - target_D)
            beta = next(steps)
        else:
            beta = steps.send(dist - target_D)
    raise ModelError(
        f"rate-distortion search did not come within {_TOL:g} bits of "
        f"R({target_D:.6g}) in {_MAX_SOLVES} slope solves "
        f"(gap {rate - best:.3g})"
    )


# -- model files -------------------------------------------------------

def bundled_model_names() -> list[str]:
    files = resources.files("ffsc") / "models"
    return sorted(f.name[: -len(".json")] for f in files.iterdir()
                  if f.name.endswith(".json"))


def load_model(ref: str | os.PathLike) -> tuple[str, Pmf, DistortionMatrix]:
    """Load a model file: a path, or the name of a bundled model.

    Schema: UTF-8 JSON object with fields ``name`` (string),
    ``alphabet_size`` (a JSON integer), ``probs`` (list of floats),
    ``distortion`` (list of rows).  A ``ref`` that is neither a str nor
    a path object (an int would be taken as a file descriptor) raises
    ModelError.
    """
    if not isinstance(ref, (str, os.PathLike)):
        raise ModelError(f"model reference must be a path or a bundled "
                         f"model's name, not {type(ref).__name__}")
    if os.path.exists(ref):
        with open(ref, "rb") as fh:
            raw = fh.read()
    else:
        candidate = resources.files("ffsc") / "models" / f"{ref}.json"
        if not candidate.is_file():
            raise ModelError(
                f"model {ref!r} is neither a file nor a bundled model "
                f"(bundled: {', '.join(bundled_model_names())})"
            )
        raw = candidate.read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelError(
            f"model file {ref!r} is not UTF-8 JSON: {exc}"
        ) from None
    except RecursionError:
        raise ModelError(f"model file {ref!r} nests too deeply") from None

    try:
        size = doc["alphabet_size"]
        probs, dist = doc["probs"], doc["distortion"]
        name = str(doc.get("name", ref))
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed model file {ref!r}: {exc}") from exc
    size = as_int(size, 2, MAX_SYMBOLS, ModelError,
                  f"model {name!r}: alphabet_size")
    prior, d = Pmf(probs), DistortionMatrix(dist)
    if prior.probs.shape != (size,) or d.entries.shape != (size, size):
        raise ModelError(
            f"model {name!r}: probs/distortion shapes do not match "
            f"alphabet_size={size}"
        )
    return name, prior, d
