"""Probability models, entropies, typicality, and a rate-distortion solver.

Everything here is base-2: entropies and rates are in bits per symbol,
with the convention 0·log 0 = 0.  All containers are immutable after
construction (arrays are frozen), so they can be shared freely across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .bits import as_int, as_real, as_symbols
from .errors import ModelError

__all__ = [
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


def _prob_table(values, ndim: int, name: str) -> np.ndarray:
    """A read-only float64 copy of `values`, an array of rank `ndim`
    whose rows (along the last axis) are pmfs: entries in [0, 1], not
    NaN, summing to 1 within 1e-12.  Raises ModelError otherwise."""
    stem = f"{name} must be a {ndim}-D array of real numbers"
    try:
        a = np.asarray(values)
    except (TypeError, ValueError):  # a ragged nested sequence
        raise ModelError(f"{stem}, not a ragged sequence") from None
    if a.ndim != ndim or a.dtype.kind not in "iuf":
        raise ModelError(f"{stem}, not a {a.ndim}-D {a.dtype} array")
    p = np.array(a, dtype=np.float64)  # the copy
    if not ((0 <= p) & (p <= 1)).all():  # NaN fails both
        raise ModelError(f"{name} entries must be in [0, 1] and not NaN")
    sums = p.sum(axis=-1)
    if (np.abs(sums - 1.0) > 1e-12).any():
        raise ModelError(f"{name} rows sum to {sums}, not 1")
    p.setflags(write=False)
    return p


@dataclass(frozen=True, eq=False)
class Alphabet:
    """A finite symbol set {0, 1, ..., size-1}, with 2 <= size <= 2^16."""

    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", as_int(self.size, 2, 2**16,
                                                ModelError, "alphabet size"))


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
        size = Alphabet(size).size
        return cls(np.full(size, 1.0 / size))


@dataclass(frozen=True, eq=False)
class TestChannel:
    """Conditional distribution p(output | input): ``TestChannel(rows)``
    keeps a read-only copy of one pmf row per input symbol, whose shape
    sets the input and output alphabets."""

    __test__ = False  # keep pytest from collecting this as a test class

    rows: np.ndarray
    input_alphabet: Alphabet = field(init=False)
    output_alphabet: Alphabet = field(init=False)

    def __post_init__(self):
        w = _prob_table(self.rows, 2, "channel")
        object.__setattr__(self, "rows", w)
        object.__setattr__(self, "input_alphabet", Alphabet(w.shape[0]))
        object.__setattr__(self, "output_alphabet", Alphabet(w.shape[1]))

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
        d = np.array(self.entries, dtype=np.float64)  # the copy
        if d.ndim != 2:
            raise ModelError("distortion matrix must be 2-D")
        if np.any(np.isnan(d)) or np.any(d < 0) or not np.all(np.isfinite(d)):
            raise ModelError("distortion entries must be finite and >= 0")
        d.setflags(write=False)
        object.__setattr__(self, "entries", d)
        object.__setattr__(self, "d_max", float(d.max()) if d.size else 0.0)

    @classmethod
    def hamming(cls, size: int) -> "DistortionMatrix":
        return cls(1.0 - np.eye(Alphabet(size).size))


def _check_match(prior: Pmf, ch: TestChannel):
    if prior.alphabet.size != ch.input_alphabet.size:
        raise ModelError(
            f"prior alphabet {prior.alphabet.size} != channel input "
            f"{ch.input_alphabet.size}"
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
    size = p.alphabet.size
    seq = as_symbols(seq, size, ModelError, "sequence")
    counts = np.bincount(seq, minlength=size).astype(np.float64)
    if np.any(counts[p.probs == 0] > 0):
        return False
    n = max(seq.size, 1)
    return bool(np.all(np.abs(counts / n - p.probs) <= delta))


# -- Blahut-Arimoto ----------------------------------------------------

# Floor on every output probability inside a slope solve.  It keeps each
# row's normaliser at least this large (the row's best column carries
# kernel weight 1), so no row underflows to 0/0 at a steep slope, and it
# is far below any mass that can move a rate or a distortion.
_Q_FLOOR = 1e-300

# Convergence tolerance: on the functional's last change in each slope
# solve (bits), and on the distortion width of the slope search's final
# bracket or that width times its slope width.  A slope solve that has
# not met it after _MAX_ITER iterations raises ModelError.
_TOL = 1e-9
_MAX_ITER = 10_000

# Share of the uniform pmf mixed into every starting marginal.  Exact
# zeros (or floored underflows) in a warm start would otherwise stay
# (nearly) dead at every later slope, as multiplicative updates cannot
# revive them, and the search would close its bracket on a false jump.
_WARM_MIX = 0.01


def _ba_solve_slope(
    prior: np.ndarray, d: np.ndarray, beta: float, q0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Blahut's fixed-slope iteration.  Returns (channel rows, marginal).

    Starts from q0 mixed with 1% of the uniform pmf and stops once the
    Lagrangian functional (in bits) moves by at most ``_TOL`` in one
    iteration.  Each row's kernel 2^(-beta*d) is scaled so that its
    largest entry is 1, which leaves the channel unchanged and keeps
    every iterate to a handful of array operations.
    """
    d_min = d.min(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        kern = np.exp2(-beta * (d - d_min))
    q = (1.0 - _WARM_MIX) * q0 + _WARM_MIX / q0.size
    tol_nat = _TOL * _LOG2
    prev_f = np.inf
    for _ in range(_MAX_ITER):
        w = q * kern
        z = w.sum(axis=1)
        w /= z[:, None]
        # Minus the Lagrangian functional in nats, short of the constant
        # that the kernel scaling took out; monotone under these updates.
        f = float(prior @ np.log(z))
        q = np.maximum(prior @ w, _Q_FLOOR)
        if abs(prev_f - f) <= tol_nat:
            return w, q
        prev_f = f
    last = beta * float(prior @ d_min[:, 0]) - prev_f / _LOG2
    raise ModelError(
        f"rate-distortion solver did not converge in {_MAX_ITER} iterations "
        f"(last functional {last:.12g}, slope {beta:.6g})"
    )


def _one_step_slope(
    weighted_d: np.ndarray, d: np.ndarray, target_D: float
) -> float:
    """Slope at which one Blahut update from the uniform marginal meets
    ``target_D``, to about 1e-3 relative.

    That update's channel is the row-normalised kernel 2^(-beta*d); its
    distortion falls as beta grows, and it is the exact optimum when the
    optimal output marginal is uniform, as in symmetric problems.
    Doubling brackets the crossing and bisection narrows it; no Blahut
    iterations are run.
    """
    d_rel = d - d.min(axis=1, keepdims=True)

    def dist(beta):
        k = np.exp2(-beta * d_rel)
        return float(np.vdot(weighted_d, k / k.sum(axis=1, keepdims=True)))

    lo, hi = 0.0, 1.0
    while dist(hi) > target_D and hi < 2.0**60:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if dist(mid) > target_D:
            lo = mid
        else:
            hi = mid
    return hi


def blahut_arimoto(
    prior: Pmf, d: DistortionMatrix, target_D: float
) -> tuple[TestChannel, float, float]:
    """Rate-distortion point at the requested distortion level.

    Runs Blahut's alternating minimisation in the Lagrangian (slope)
    parameterisation and searches the slope until the achieved
    distortion matches ``min(target_D, distortion of the zero-rate
    point)``.  The first slope solve, from the uniform pmf, is at the
    slope where one Blahut update from the uniform marginal meets the
    target (``_one_step_slope``), which is the answer for symmetric
    problems; the zero-rate channel at slope 0 is the bracket's other
    end.  The search doubles the slope until it brackets the target,
    then closes the bracket by the Illinois variant of regula falsi on
    D(slope) - target_D, with a bisection step whenever the secant point
    leaves the open bracket.  Each later slope solve starts from the
    previous one's output marginal, mixed with 1% of the uniform pmf.

    The search stops once the bracket's distortion width is at most
    ``_TOL``, or once that width times its slope width is.  R(D) is
    convex with slopes -lo and -hi at the bracket's ends, so in the
    second case the chord between them, and with it the rate of the
    convex mixture of the two channels that meets the target, is within
    ``_TOL/4`` bits of the curve.  ``_TOL`` also bounds the functional's
    last change in every slope solve (bits).  Returns ``(channel, R,
    D)``: R is the channel's ``mutual_information`` in bits/symbol and D
    its ``expected_distortion``.
    """
    p = prior.probs
    dm = np.asarray(d.entries, dtype=np.float64)
    if dm.shape[0] != p.size:
        raise ModelError("distortion matrix rows must match prior alphabet")
    target_D = as_real(target_D, 0, d.d_max, ModelError, "target distortion")
    n_out = dm.shape[1]

    # Zero-rate endpoint: the best constant reproduction.
    col_cost = p @ dm
    j_star = int(np.argmin(col_cost))
    d_zero = float(col_cost[j_star])
    if target_D >= d_zero:
        w = np.zeros((p.size, n_out))
        w[:, j_star] = 1.0
        return TestChannel(w), 0.0, d_zero

    # Maximum-rate endpoint: deterministic best-per-row reproduction.
    row_best = dm.argmin(axis=1)
    d_floor = float(p @ dm[np.arange(p.size), row_best])
    if target_D <= d_floor + 1e-15:
        w = np.zeros((p.size, n_out))
        w[np.arange(p.size), row_best] = 1.0
        ch = TestChannel(w)
        return ch, mutual_information(prior, ch), expected_distortion(prior, ch, d)

    # A channel w's distortion is vdot(weighted_d, w); the search needs no
    # rate until the end.
    weighted_d = p[:, None] * dm

    def solve(beta, q_start):
        w, q_out = _ba_solve_slope(p, dm, beta, q_start)
        return w, q_out, float(np.vdot(weighted_d, w))

    # Bracket the slope: distortion is non-increasing in beta.  Keep the
    # nearest feasible channel on each side of the target so we can finish
    # with an exact convex combination (distortion is linear in the channel,
    # so the mixture hits target_D to rounding error; convexity of R(D)
    # keeps the mixture's rate within the bracket of the true curve).
    w_above = np.zeros((p.size, n_out))
    w_above[:, j_star] = 1.0
    d_above = d_zero
    lo = 0.0
    hi = _one_step_slope(weighted_d, dm, target_D)
    w_hi, q, dist = solve(hi, np.full(n_out, 1.0 / n_out))
    while dist > target_D:
        w_above, d_above = w_hi, dist
        lo = hi
        hi *= 2.0
        if hi > 2.0**60:
            break
        w_hi, q, dist = solve(hi, q)
    w_below, d_below = w_hi, dist

    # Illinois steps on g(beta) = D(beta) - target_D, positive at lo and
    # non-positive at hi.  When the same end moves twice running, the
    # other end's g is halved, so both ends close in.
    g_above = d_above - target_D
    g_below = d_below - target_D
    last_side = 0
    for _ in range(200):
        if (d_above - d_below <= _TOL
                or (d_above - d_below) * (hi - lo) <= _TOL
                or hi - lo <= 1e-15 * max(1.0, hi)):
            break
        beta = lo + (hi - lo) * g_above / (g_above - g_below)
        if not lo < beta < hi:
            beta = 0.5 * (lo + hi)
        w, q, dist = solve(beta, q)
        if dist > target_D:
            w_above, d_above, lo, g_above = w, dist, beta, dist - target_D
            if last_side > 0:
                g_below *= 0.5
            last_side = 1
        else:
            w_below, d_below, hi, g_below = w, dist, beta, dist - target_D
            if last_side < 0:
                g_above *= 0.5
            last_side = -1

    if d_above > d_below:
        lam = (target_D - d_below) / (d_above - d_below)
        lam = min(max(lam, 0.0), 1.0)
        w = lam * w_above + (1.0 - lam) * w_below
    else:
        w = w_below
    ch = TestChannel(w)
    return ch, mutual_information(prior, ch), expected_distortion(prior, ch, d)


# -- model files -------------------------------------------------------

def bundled_model_names() -> list[str]:
    files = resources.files("ffsc") / "models"
    return sorted(f.name[: -len(".json")] for f in files.iterdir()
                  if f.name.endswith(".json"))


def load_model(ref: str) -> tuple[str, Pmf, DistortionMatrix]:
    """Load a model file: a path, or the name of a bundled model.

    Schema: UTF-8 JSON object with fields ``name`` (string),
    ``alphabet_size`` (a JSON integer), ``probs`` (list of floats),
    ``distortion`` (list of rows).
    """
    import os

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
        probs = np.asarray(doc["probs"], dtype=np.float64)
        dist = np.asarray(doc["distortion"], dtype=np.float64)
        name = str(doc.get("name", ref))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model file {ref!r}: {exc}") from exc
    size = as_int(size, 2, 2**16, ModelError, f"model {name!r}: alphabet_size")
    if probs.shape != (size,) or dist.shape != (size, size):
        raise ModelError(
            f"model {name!r}: probs/distortion shapes do not match "
            f"alphabet_size={size}"
        )
    return name, Pmf(probs), DistortionMatrix(dist)
