"""Scripted experiments with machine-readable reports.

Each codec experiment runs independent seeded trials (optionally in a
worker pool, capped by FFSC_THREADS), each coding a source drawn from
the configuration's prior.  It scores them against closed-form or
solver references and emits a CSV/JSON report whose rows are ordered
by trial index no matter the completion order.  Reports are
byte-deterministic for a fixed configuration and seed, except the
wall-time column.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _kernels
from .bits import as_int, as_real
from .codec import (
    CodecConfig,
    FeedforwardOracle,
    _block_lengths,
    _sample_rows,
    decode,
    encode,
    estimate_total_samples,
    measure,
)
from .coder import _round
from .erasure import (
    ErasurePattern,
    ErasureSource,
    apply_erasures,
    bec_feedback_send,
    beq_decode,
    beq_encode,
    erasure_distortion,
)
from .errors import ConfigError
from .model import Pmf
from .rng import SplitMix64

__all__ = [
    "ExperimentSpec",
    "TrialRow",
    "Report",
    "run_codec_experiment",
    "harness_workers",
    "run_beq_example",
    "run_duality_example",
    "uniform_source",
]

@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    cfg: CodecConfig
    trials: int
    rate_bounds: tuple[float, float] | None = None
    distortion_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "trials", as_int(
            self.trials, 1, None, ConfigError, "trial count"))
        for name in ("rate_bounds", "distortion_bounds"):
            bounds = getattr(self, name)
            if bounds is not None:
                object.__setattr__(self, name, _bounds(bounds, name))


def _bounds(bounds, name: str) -> tuple[float, float]:
    """`bounds` as a pair of reals (lo, hi) with lo <= hi, or raise
    ConfigError about argument `name`."""
    try:
        lo, hi = bounds
    except (TypeError, ValueError):  # not a pair
        raise ConfigError(f"{name} {bounds!r} is not a pair (lo, hi)") from None
    lo = as_real(lo, -np.inf, np.inf, ConfigError, f"{name} low end")
    return lo, as_real(hi, lo, np.inf, ConfigError, f"{name} high end")


@dataclass(frozen=True)
class TrialRow:
    trial: int
    seed: int
    n: int
    K: int
    rate: float
    distortion: float
    rd_ref: float
    gap: float
    wall_s: float


# The report's columns, in order; the summary rows average every column
# but those that label a trial.
_COLUMNS = tuple(f.name for f in fields(TrialRow))
_SUMMARY_COLUMNS = tuple(c for c in _COLUMNS
                         if c not in ("trial", "seed", "K"))


@dataclass(frozen=True)
class Report:
    experiment: str
    rows: list[TrialRow]
    summary: dict[str, dict[str, float]]
    violations: list[str]

    def to_csv(self) -> str:
        rows = [_COLUMNS]
        rows += [[getattr(r, c) for c in _COLUMNS] for r in self.rows]
        for label in ("mean", "std"):
            s = self.summary[label]
            rows.append([label, *(s.get(c, "") for c in _COLUMNS[1:])])
        return "".join(_csv_row(*cells) for cells in rows)

    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "rows": [vars(r) for r in self.rows],
            "summary": self.summary,
            "violations": self.violations,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_row(*cells) -> str:
    out = []
    for c in cells:
        if isinstance(c, float):
            out.append(f"{c:.12g}")
        else:
            out.append(str(c))
    return ",".join(out) + "\n"


def uniform_source(seed: int, count: int, size: int) -> np.ndarray:
    """`count` deterministic symbols of ``Pmf.uniform(size)``, drawn as
    the harness draws a trial's source (``_prior_source``); a size
    outside ``Pmf.uniform``'s [2, MAX_SYMBOLS] raises ModelError."""
    return _prior_source(seed, count, Pmf.uniform(size))


def _prior_source(seed: int, count: int, prior: Pmf) -> np.ndarray:
    """`count` deterministic symbols of `prior`, drawn by the codec's
    sampler from the prior's CDF at 32 bits, rounded as ``quantize``
    rounds."""
    cum = np.zeros((1, prior.probs.size + 1), dtype=np.int64)
    np.cumsum(_round(prior.probs, 1 << 32), out=cum[0, 1:])
    return _sample_rows(SplitMix64(seed), cum, 32, count)


_SOURCE_SEED_SALT = 0x5EED_0F5E_ED00_0001


def _trial_source_len(cfg: CodecConfig) -> int:
    """Samples a trial draws: the predicted n with a margin, plus four
    seed blocks.  A shaped block of n_j samples spreads by sigma/(mu
    sqrt(n_j)), mu and sigma the mean and deviation of a sample's -log2
    W(xhat|x): one over the root of its crossovers on a low-D BSC.  Each
    block's spread carries into all later ones, so n spreads by at most
    s = (sigma/mu) sqrt(sum 1/n_j) over the shaped blocks n_j = rho^j M,
    j < K, and the first frame's count and flush, some 32 bits, lengthen
    them all by b = 32/(mu n_1), even at K = 1: the margin is max(10%,
    3s + b).  Raises ConfigError, before anything is allocated, if they
    cannot fit in memory at 16 bytes each (the 64-bit draws and the int64
    symbols)."""
    joint = cfg.prior.probs[:, None] * cfg.channel.rows
    info = -np.log2(np.where(joint > 0, cfg.channel.rows, 1))
    mu = (joint * info).sum()
    lengths = _block_lengths(cfg, cfg.passes + 1)
    inv_n = sum(1 / n for n in lengths[1:-1])
    s = np.sqrt((joint * (info - mu) ** 2).sum() * inv_n) / mu
    margin = max(0.10, 3 * s + 32 / (mu * lengths[1]))
    need = int((1 + margin) * estimate_total_samples(cfg)) + 4 * cfg.min_block
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError):  # no sysconf here: no bound
        return need
    if 16 * need > memory:
        raise ConfigError(f"a trial needs {need:.3g} source samples, more "
                          f"than {memory / 2**30:.3g} GiB of memory holds")
    return need


def _run_trial(cfg: CodecConfig, trial: int) -> tuple[TrialRow, list[str]]:
    t0 = time.perf_counter()
    seed = cfg.seed + trial
    cfg_t = replace(cfg, seed=seed)
    source = _prior_source(seed ^ _SOURCE_SEED_SALT, _trial_source_len(cfg_t),
                           cfg_t.prior)
    enc = encode(source, cfg_t)
    coded = source[source.size - enc.n:]
    oracle = FeedforwardOracle(coded)
    dec = decode(enc.bitstream, oracle, cfg_t)
    rep = measure(coded, dec, cfg_t.distortion)
    problems = []
    if not np.array_equal(dec.xhat, enc.xhat):
        problems.append(f"trial {trial}: decoder output differs from encoder")
    if not oracle.audit_clean():
        problems.append(f"trial {trial}: causality audit failed")
    row = TrialRow(
        trial=trial, seed=seed, n=enc.n, K=cfg_t.passes, rate=enc.rate,
        distortion=rep.mean_distortion, rd_ref=rep.rd_reference, gap=rep.gap,
        wall_s=time.perf_counter() - t0,
    )
    return row, problems


def harness_workers(trials: int) -> int:
    """Trials run at once: FFSC_THREADS if set, else the core count (at
    most 8), never more than there are trials.  Raises ConfigError
    unless `trials`, and FFSC_THREADS if set, are positive integers."""
    trials = as_int(trials, 1, None, ConfigError, "trial count")
    env = os.environ.get("FFSC_THREADS")
    if env:
        if not (env.isascii() and env.isdigit()) or int(env) < 1:
            raise ConfigError(
                f"FFSC_THREADS={env!r} is not a positive integer")
        return min(trials, int(env))
    return max(1, min(trials, os.cpu_count() or 1, 8))


def run_codec_experiment(spec: ExperimentSpec) -> Report:
    """Run spec.trials trials and score them.  Several workers run
    trials at once: threads with the numba kernels, which release the
    GIL, and spawned processes with the pure-Python fallback, which does
    not (so a script that calls this keeps its top-level code under
    ``if __name__ == "__main__":``).  Raises ConfigError before any trial
    starts if a trial's source cannot fit in memory."""
    _trial_source_len(spec.cfg)
    workers = harness_workers(spec.trials)
    if workers == 1:
        results = [_run_trial(spec.cfg, i) for i in range(spec.trials)]
    else:
        if _kernels.HAVE_NUMBA:
            pool = ThreadPoolExecutor(max_workers=workers)
        else:
            # Imported here, as only this pool needs them: they add about
            # a tenth to the package's import time.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"))
        with pool:
            results = list(pool.map(_run_trial, [spec.cfg] * spec.trials,
                                    range(spec.trials)))

    rows = [r for r, _ in results]
    violations = [p for _, probs in results for p in probs]

    def col(name):
        return np.array([getattr(r, name) for r in rows], dtype=np.float64)

    summary = {}
    for label, reducer in (("mean", np.mean), ("std", np.std)):
        summary[label] = {c: float(reducer(col(c))) for c in _SUMMARY_COLUMNS}

    for column, bounds in (("rate", spec.rate_bounds),
                           ("distortion", spec.distortion_bounds)):
        mean = summary["mean"][column]
        if bounds and not bounds[0] <= mean <= bounds[1]:
            violations.append(f"mean {column} {mean:.6f} outside "
                              f"[{bounds[0]}, {bounds[1]}]")

    return Report(spec.name, rows, summary, violations)


# -- worked erasure examples -------------------------------------------

def run_beq_example(source_str: str) -> dict:
    """Erasure quantization end to end, with the unit-lag audit."""
    src = ErasureSource.from_string(source_str)
    message = beq_encode(src)
    oracle = FeedforwardOracle(src.seq)
    recon = beq_decode(message, oracle)
    distortion = int(erasure_distortion().entries[src.seq, recon].sum())
    ok = (len(message) == src.n - src.e and distortion == 0
          and oracle.audit_clean())
    return {
        "source": source_str,
        "n": src.n,
        "e": src.e,
        "message": _bitstr(message),
        "message_bits": len(message),
        "reconstruction": "".join(str(int(v)) for v in recon),
        "distortion": distortion,
        "audit": "clean" if oracle.audit_clean() else "violated",
        "ok": ok,
    }


def run_duality_example(message_str: str, erasures: tuple[int, ...]) -> dict:
    """Feedback transmission over an erasure channel, plus its dual."""
    if not isinstance(message_str, str) or set(message_str) - {"0", "1"}:
        raise ConfigError(f"message {message_str!r} is not a string of 0s "
                          f"and 1s")
    message = np.array([int(c) for c in message_str], dtype=np.uint8)
    pattern = ErasurePattern(erasures)
    sent, uses = bec_feedback_send(message, pattern)
    seen = apply_erasures(sent, pattern)
    # The receiver keeps the delivered symbols: it is the quantizer's
    # encoder, which is the duality itself.
    recovered = beq_encode(seen)
    n = len(message)
    e = sum(1 for i in pattern.indices if i <= uses)
    ok = np.array_equal(recovered, message) and uses == n + e
    return {
        "message": message_str,
        "erasures": sorted(pattern.indices),
        "sent": _bitstr(sent),
        "uses": uses,
        "received": seen.to_string(),
        "recovered": _bitstr(recovered),
        "rate": f"{n}/{uses}",
        "ok": ok,
    }


def _bitstr(bits: np.ndarray) -> str:
    return "".join(map(str, bits.tolist()))
