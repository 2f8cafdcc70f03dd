"""In-memory span recorder and the timing shims of the traced run.

A span is one call into a layer: its name, start, end, parent span and
thread.  Shims are installed on the name the *caller* looks up (for
example ``ffsc.codec.shape``, which is what ``encode`` calls, or
``ffsc._kernels.shape_kernel``, which is what ``shape`` calls), so the
package's own source is never edited.  Spans stay in memory and are
reduced to per-layer metrics when the run ends.

A span opened on a thread that has no open span of its own (a harness
worker thread) takes as parent the innermost open span of the thread
that created the tracer, so a trial's encode is a child of the
``run_codec_experiment`` call that scheduled it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import resource
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)


def kernel_statuses() -> dict[int, str]:
    """The kernels' return codes by value, read from ffsc._kernels."""
    kernels = importlib.import_module("ffsc._kernels")
    return {v: k for k, v in vars(kernels).items()
            if k.isupper() and not k.startswith("_")
            and type(v) is int}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    """Collects spans from any thread; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.paused = False
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._home = threading.get_ident()

    def begin(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks[tid]
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks[self._home]
                parent = home[-1] if home else None
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, tid))
            stack.append(idx)
        return idx

    def end(self, idx: int, attrs: dict | None = None):
        now = time.perf_counter()
        with self._lock:
            span = self.spans[idx]
            span.end = now
            if attrs:
                span.attrs.update(attrs)
            self._stacks[span.thread].remove(idx)

    @contextlib.contextmanager
    def suspended(self):
        """Let shimmed calls through unrecorded (used for corrupted decodes)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False


# -- shims ------------------------------------------------------------

def _kernel_status(out) -> int:
    return int(out[-1])


def _count_compress(args, out):
    return {"symbols": len(args[0]), "bytes": len(out.to_bytes())}


def _count_prefix(args, out):
    return {"symbols": int(out[0].size)}


def _count_shape(args, out):
    return {"bits_in": len(args[0]), "symbols_out": int(out[1])}


def _count_deshape(args, out):
    return {"symbols": len(args[0])}


def _count_encode_kernel(args, out):
    return {"symbols": len(args[0]), "status": _kernel_status(out)}


def _count_decode_kernel(args, out):
    return {"symbols": int(args[1]), "status": _kernel_status(out)}


def _count_shape_kernel(args, out):
    return {"symbols": int(out[0]), "status": _kernel_status(out)}


# (span name, module, attribute path, counter).  A layer is the module
# that defines the callee; the same callee looked up from two modules
# gets two shims with one span name.
SHIMS = [
    ("experiments.run_codec_experiment", "ffsc.experiments", "run_codec_experiment", None),
    # Source generation runs in the harness's worker threads, beside other
    # trials' spans, so only its own span keeps it in experiments.self_s.
    ("experiments.uniform_source", "ffsc.experiments", "uniform_source", None),
    ("codec.encode", "ffsc.codec", "encode", None),
    ("codec.encode", "ffsc.experiments", "encode", None),
    ("codec.decode", "ffsc.codec", "decode", None),
    ("codec.decode", "ffsc.experiments", "decode", None),
    ("codec.measure", "ffsc.codec", "measure", None),
    ("codec.measure", "ffsc.experiments", "measure", None),
    ("codec.CodecConfig.quantized", "ffsc.codec", "CodecConfig.quantized", None),
    ("codec.FeedforwardOracle.reveal_range", "ffsc.codec",
     "FeedforwardOracle.reveal_range", None),
    ("coder.compress", "ffsc.codec", "compress", _count_compress),
    ("coder.decode_frame_prefix", "ffsc.codec", "decode_frame_prefix", _count_prefix),
    ("coder.model_digest", "ffsc.codec", "model_digest", None),
    ("shaping.shape", "ffsc.codec", "shape", _count_shape),
    ("shaping.deshape_raw", "ffsc.codec", "deshape_raw", _count_deshape),
    ("model.is_strongly_typical", "ffsc.codec", "is_strongly_typical", None),
    ("model.blahut_arimoto", "ffsc.codec", "blahut_arimoto", None),
    ("rng.SplitMix64.fill_u64", "ffsc.rng", "SplitMix64.fill_u64", None),
    ("kernels.encode_kernel", "ffsc._kernels", "encode_kernel", _count_encode_kernel),
    ("kernels.decode_kernel", "ffsc._kernels", "decode_kernel", _count_decode_kernel),
    ("kernels.shape_kernel", "ffsc._kernels", "shape_kernel", _count_shape_kernel),
]

_CPU_SPANS = {"experiments.run_codec_experiment"}


def _shim(tracer: Tracer, name: str, fn, counter):
    cpu = name in _CPU_SPANS

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        cpu0 = _cpu_s() if cpu else 0.0
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx, {"raised": 1})
            raise
        attrs = counter(args, out) if counter else {}
        if cpu:
            attrs["cpu_s"] = _cpu_s() - cpu0
        tracer.end(idx, attrs)
        return out

    return shim


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every shim for the duration of the block, then restore."""
    undo = []
    try:
        for name, module, path, counter in SHIMS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, _shim(tracer, name, original, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- reduction --------------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict]:
    """Per-layer totals of a list of spans, and kernel status counts.

    Keys are ``<span>.s`` (inclusive seconds), ``<span>.self_s``,
    ``<span>.calls`` and ``<span>.<counter>`` for every counter a shim
    records, plus the derived ratios listed in the benchmark's doc.
    The status counts map each kernel span to {status name: calls}.
    """
    own = self_times(spans)
    names = kernel_statuses()
    need_more = {v for v, k in names.items() if k.startswith("NEED_MORE")}
    out: dict[str, float] = defaultdict(float)
    status: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s, self_s in zip(spans, own):
        dur = s.end - s.start
        out[f"{s.name}.s"] += dur
        out[f"{s.name}.self_s"] += self_s
        out[f"{s.name}.calls"] += 1
        for key, value in s.attrs.items():
            if key == "status":
                status[s.name][names.get(value, str(value))] += 1
                out[f"{s.name}.need_more"] += value in need_more
            else:
                out[f"{s.name}.{key}"] += value
        if s.name.startswith("experiments."):
            out["experiments.self_s"] += self_s

    for k in ("encode_kernel", "decode_kernel", "shape_kernel"):
        s = out[f"kernels.{k}.s"]
        out[f"kernels.{k}.sym_per_s"] = out[f"kernels.{k}.symbols"] / s if s else 0.0

    shape_calls = out["shaping.shape.calls"]
    in_shape = [s for s in spans if s.name == "kernels.shape_kernel"
                and s.parent is not None and spans[s.parent].name == "shaping.shape"]
    out["shaping.shape.retries"] = len(in_shape) - shape_calls
    out["shaping.shape.retry_s"] = sum(s.end - s.start for s in in_shape
                                       if s.attrs.get("status") in need_more)
    ok = sum(1 for s in in_shape if names.get(s.attrs.get("status")) == "OK")
    out["shaping.shape.useful_ratio"] = ok / len(in_shape) if in_shape else 0.0

    wall = out["experiments.run_codec_experiment.s"]
    cpu = out["experiments.run_codec_experiment.cpu_s"]
    out["experiments.cpu_per_wall"] = cpu / wall if wall else 0.0
    return dict(out), {k: dict(v) for k, v in status.items()}
