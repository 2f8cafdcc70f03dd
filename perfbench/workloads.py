"""The benchmark's workloads: input generators, rounds of ops, and checks.

Every workload is a closed loop with one caller in one process: the
benchmark waits for each call before it makes the next.  Inputs come
from ``inputs(seed)``, which depends only on the seed, and are generated
once, outside the timed region.  Every round runs the same inputs, so
each op is timed once per round and keeps its fastest time: the host
this runs on is shared, and its contention only ever adds time.  Round
0 always runs; the output checks that depend on it alone (bitstream
digest, rate, distortion, corrupted decodes) run there.

The benchmark calls the codec through ``ffsc.codec.<name>`` and
``ffsc.experiments.<name>`` attribute lookups, which are the names the
traced run's shims replace.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import re
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from unittest import mock

import numpy as np

from ffsc import codec, experiments, model
from ffsc.errors import FfscError
from ffsc.experiments import ExperimentSpec
from ffsc.model import DistortionMatrix, Pmf, TestChannel

# Criterion 1 of the acceptance suite: the bands every harness call must meet.
RATE_BAND = (0.50, 0.56)
DISTORTION_BAND = (0.10, 0.12)
# Criterion 1 codes with K=5 passes; short streams with M=256 and K=3.
HAMMING_PASSES = 5
SHORT_MIN_BLOCK = 256
SHORT_PASSES = 3
# Short streams are coded at D = 0.15 and must average within 0.15 +- 0.015.
SHORT_TARGET_D = 0.15
SHORT_D_TOL = 0.015
# A clean short-stream decode takes about 10 ms on the fallback kernels; a
# corrupted one still running after this long is not bounded by its input.
CORRUPT_BUDGET_S = 0.5
CORRUPT_CLASSES = ("exact", "typed", "silent_wrong", "untyped", "overtime")


@dataclass
class Tally:
    """What one phase of a run observed; reduced to metrics by run.py.

    ``failed`` counts attempted ops on valid input that failed: an
    uncaught exception, a decode that differs from the encoder's xhat, a
    dirty causality audit or a harness violation; ``problems`` describes
    them and makes the run incorrect.  Corrupted streams are not ops of
    the workload: each one's outcome class is counted in ``corrupt``.

    The timing tables map an op's key to (work, fastest seconds over the
    rounds): ``op_s`` (1, s) per op, ``encodes`` and ``decodes`` (coded
    samples, s) per codec call.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    op_s: dict = field(default_factory=dict)
    encodes: dict = field(default_factory=dict)
    decodes: dict = field(default_factory=dict)
    quality: list[tuple[float, float, float]] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    corrupt: Counter = field(default_factory=Counter)
    corrupt_s: float = 0.0
    quiet: object = contextlib.nullcontext

    def fail(self, ops: int, problem: str):
        self.failed += ops
        self.problems.append(problem)

    @property
    def busy_s(self) -> float:
        return sum(s for _, s in self.op_s.values())


def keep_best(table: dict, key, work: int, seconds: float):
    """Record (work, seconds) under key unless it already holds a faster time."""
    old = table.get(key)
    if old is None or seconds < old[1]:
        table[key] = (work, seconds)


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _source_len(cfg: codec.CodecConfig) -> int:
    """Samples to hand the encoder: 50% over the geometric prediction plus
    4M, since framing overhead makes small blocks grow faster than rho."""
    rho = model.growth_factor(cfg.prior, cfg.channel)
    predicted = cfg.min_block * sum(rho ** i for i in range(cfg.passes))
    return int(1.5 * predicted) + 4 * cfg.min_block


def _roundtrip(source, cfg, tally: Tally, first: bool, key, label: str):
    """Encode, decode and measure one stream; check and record it."""
    t0 = time.perf_counter()
    enc = codec.encode(source, cfg)
    t1 = time.perf_counter()
    coded = source[source.size - enc.n:]
    oracle = codec.FeedforwardOracle(coded)
    dec = codec.decode(enc.bitstream, oracle, cfg)
    t2 = time.perf_counter()
    rep = codec.measure(coded, dec, cfg.distortion)
    t3 = time.perf_counter()
    keep_best(tally.op_s, key, 1, t3 - t0)
    keep_best(tally.encodes, key, enc.n, t1 - t0)
    keep_best(tally.decodes, key, enc.n, t2 - t1)
    if first:
        tally.quality.append((enc.rate, rep.rd_reference, rep.mean_distortion))
        tally.digest.update(enc.bitstream)
    if not np.array_equal(dec.xhat, enc.xhat):
        tally.fail(1, f"{label}: decoder output differs from the encoder's xhat")
    elif not oracle.audit_clean():
        tally.fail(1, f"{label}: causality audit failed")
    return enc, coded


# -- hamming-trials ----------------------------------------------------

class _Stopwatch:
    """Times the harness's encode/decode calls and hashes their streams.

    Installed on ``ffsc.experiments.encode``/``decode`` for the whole run,
    traced or not, at a cost of two clock reads per call of about 0.5 s.
    Calls are keyed by their trial's seed and recorded in ``tally``.
    """

    def __init__(self):
        self.tally = Tally()
        self.streams: dict[int, bytes] = {}
        self.capture = False

    def wrap(self, fn, table: str, capture: bool):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            seed = args[-1].seed  # encode(source, cfg), decode(stream, oracle, cfg)
            keep_best(getattr(self.tally, table), seed, out.n, time.perf_counter() - t0)
            if capture and self.capture:
                self.streams[seed] = hashlib.sha256(out.bitstream).digest()
            return out
        return timed

    @contextlib.contextmanager
    def installed(self):
        enc, dec = experiments.encode, experiments.decode
        experiments.encode = self.wrap(enc, "encodes", True)
        experiments.decode = self.wrap(dec, "decodes", False)
        try:
            yield
        finally:
            experiments.encode, experiments.decode = enc, dec


class HammingTrials:
    """Criterion 1's spec through ``run_codec_experiment``.

    BSC(0.11), uniform binary source, M=4096, K=5 (n ~ 128k per trial),
    on one harness worker.  One round is one harness call of
    ``trials`` trials on the seed's harness seed.  Trials differ in encode
    time by about a fifth (which shape passes overflow and rerun is drawn
    by each trial's input), so a round holds 12 to average that out.
    """

    name = "hamming-trials"
    # Harness worker threads, set through the harness's FFSC_THREADS.  Its
    # default cap, 2 on 2 cores, runs the pure-Python kernels about a third
    # slower than one worker (the threads take turns holding the
    # interpreter lock) and doubles the run-to-run spread.
    workers = 1

    def __init__(self, trials: int = 12, min_block: int = 4096):
        self.cfg = codec.CodecConfig(
            prior=Pmf.uniform(2), channel=TestChannel.bsc(0.11),
            distortion=DistortionMatrix.hamming(2), min_block=min_block,
            passes=HAMMING_PASSES, seed=1)
        self.trials = trials
        self.watch = _Stopwatch()

    def warm_up(self):
        warm = replace(self.cfg, min_block=256, passes=2)
        experiments.run_codec_experiment(ExperimentSpec("warm-up", warm, trials=1))

    @contextlib.contextmanager
    def session(self):
        with mock.patch.dict(os.environ, {"FFSC_THREADS": str(self.workers)}), \
                self.watch.installed():
            yield

    def inputs(self, seed: int) -> int:
        """The harness seed; trial i codes with seed + i."""
        return int(_rng(seed, 0).integers(1, 2**40))

    def run_round(self, base_seed: int, tally: Tally, first: bool):
        spec = ExperimentSpec(
            name=self.name, cfg=replace(self.cfg, seed=base_seed),
            trials=self.trials, rate_bounds=RATE_BAND,
            distortion_bounds=DISTORTION_BAND,
        )
        w = self.watch
        w.capture = first
        w.tally = tally
        tally.attempted += self.trials
        try:
            rep = experiments.run_codec_experiment(spec)
        except Exception as exc:  # a failed harness call fails all its trials
            tally.fail(self.trials, f"harness seed {base_seed}: {exc!r}")
            return
        for r in rep.rows:
            keep_best(tally.op_s, r.seed, 1, r.wall_s)
        # The harness checks each trial's decode and audit and the call's
        # mean rate and distortion bands; a band violation fails every trial.
        bad = set()
        for v in rep.violations:
            m = re.match(r"trial (\d+):", v)
            bad.update([int(m.group(1))] if m else range(self.trials))
        tally.failed += len(bad)
        tally.problems.extend(f"harness seed {base_seed}: {v}" for v in rep.violations)
        if first:
            tally.quality.extend((r.rate, r.rd_ref, r.distortion) for r in rep.rows)
            for s in sorted(w.streams):
                tally.digest.update(w.streams[s])
            w.streams.clear()


# -- short-streams -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class Stream:
    source: np.ndarray
    cfg: codec.CodecConfig
    corruption: tuple | None   # (kind, position in [0, 1), junk bytes)


class _Overtime(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in ffsc absorbs it."""


def _alarm(signum, frame):
    raise _Overtime


def corrupt(stream: bytes, corruption: tuple) -> bytes:
    """Apply a (kind, u, junk) corruption: bit flip, truncation or junk."""
    kind, u, junk = corruption
    if kind == "flip":
        bit = int(u * 8 * len(stream))
        out = bytearray(stream)
        out[bit // 8] ^= 0x80 >> (bit % 8)
        return bytes(out)
    if kind == "truncate":
        return stream[: int(u * len(stream))]
    return stream + junk


class ShortStreams:
    """Short ternary and 4-ary Hamming streams with corrupted copies.

    M=256, K=3 (n ~ 2.3k), channels from the solver at D=0.15.  Each
    stream is encoded, decoded and measured; in round 0 a corrupted copy
    of every 4th is decoded as well, untimed and under a CORRUPT_BUDGET_S
    time limit.
    """

    name = "short-streams"

    def __init__(self, streams: int = 100):
        self.streams = streams
        self.cfgs = []
        for size in (3, 4):
            prior = Pmf.uniform(size)
            d = DistortionMatrix.hamming(size)
            channel, _, _ = model.blahut_arimoto(prior, d, SHORT_TARGET_D)
            self.cfgs.append(codec.CodecConfig(
                prior=prior, channel=channel, distortion=d,
                min_block=SHORT_MIN_BLOCK, passes=SHORT_PASSES, seed=1))
        self.source_lens = [_source_len(c) for c in self.cfgs]

    def warm_up(self):
        for k, cfg in enumerate(self.cfgs):
            source = _rng(0, k).integers(0, cfg.prior.alphabet.size, self.source_lens[k])
            _roundtrip(source, cfg, Tally(), False, k, "warm-up")

    def session(self):
        return contextlib.nullcontext()

    def inputs(self, seed: int) -> list[Stream]:
        rng = _rng(seed, 0)
        out = []
        for i in range(self.streams):
            # Alternate the channel, shifted every 4 streams so that the
            # corrupted copies (every 4th stream) alternate too.
            k = (i + i // 4) % 2
            cfg = replace(self.cfgs[k], seed=int(rng.integers(1, 2**40)))
            source = rng.integers(0, cfg.prior.alphabet.size, self.source_lens[k])
            corruption = None
            if i % 4 == 3:
                kind = ("flip", "truncate", "junk")[int(rng.integers(3))]
                junk = rng.integers(0, 256, int(rng.integers(1, 9)), dtype=np.uint8)
                corruption = (kind, float(rng.random()), junk.tobytes())
            out.append(Stream(source, cfg, corruption))
        return out

    def run_round(self, streams: list[Stream], tally: Tally, first: bool):
        for i, st in enumerate(streams):
            label = f"stream {i} (seed {st.cfg.seed})"
            tally.attempted += 1
            try:
                enc, coded = _roundtrip(st.source, st.cfg, tally, first, i, label)
            except Exception as exc:
                tally.fail(1, f"{label}: {exc!r}")
                continue
            if first and st.corruption is not None:
                self._decode_corrupted(enc, coded, st, tally)
        if first and tally.quality:
            mean_d = statistics.fmean(d for _, _, d in tally.quality)
            if abs(mean_d - SHORT_TARGET_D) > SHORT_D_TOL:
                tally.problems.append(
                    f"mean distortion {mean_d:.4f} outside "
                    f"{SHORT_TARGET_D} +- {SHORT_D_TOL}")

    def _decode_corrupted(self, enc, coded, st: Stream, tally: Tally):
        bad = corrupt(enc.bitstream, st.corruption)
        oracle = codec.FeedforwardOracle(coded)
        previous = signal.signal(signal.SIGALRM, _alarm)
        t0 = time.perf_counter()
        try:
            with tally.quiet():
                signal.setitimer(signal.ITIMER_REAL, CORRUPT_BUDGET_S)
                try:
                    dec = codec.decode(bad, oracle, st.cfg)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = "exact" if np.array_equal(dec.xhat, enc.xhat) else "silent_wrong"
        except _Overtime:
            outcome = "overtime"
        except FfscError:
            outcome = "typed"
        except Exception:
            outcome = "untyped"
        finally:
            signal.signal(signal.SIGALRM, previous)
        tally.corrupt_s += time.perf_counter() - t0
        tally.corrupt[outcome] += 1


WORKLOADS = {w.name: w for w in (HammingTrials, ShortStreams)}
