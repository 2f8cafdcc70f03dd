#!/usr/bin/env python3
"""Run one ffsc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload short-streams --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
there.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list the same metrics by name and unit, and a context line
with the kernel backend, core count, bitstream digest and output-check
results.  Each run also appends a full record to ``--record``, which
``perfbench/compare.py`` reads.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_PROBES = 9

# Per-layer leaves that are ratios, reported as measured over the traced
# rounds; every other per-layer value is a per-round mean.
RATIOS = ("sym_per_s", "useful_ratio", "cpu_per_wall")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it; with 20 samples or fewer, where that percentile
    would not lie above the median, the maximum at 100."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    """Peak RSS of this process, which runs the workload, in MiB.  The
    set-up probes are children and are not counted."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_second(table: dict) -> float:
    """Work per second of a table of (work, fastest seconds) calls."""
    return sum(n for n, _ in table.values()) / sum(t for _, t in table.values())


def end_to_end(tally, setup_s: float) -> tuple[dict[str, float], dict]:
    rates, rd_refs, dists = zip(*tally.quality)
    op_s = [t for _, t in tally.op_s.values()]
    tail_v, tail_pct = tail(op_s)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": _per_second(tally.op_s),
        "encode_sps": _per_second(tally.encodes),
        "decode_sps": _per_second(tally.decodes),
        "roundtrip_p50_ms": 1e3 * statistics.median(op_s),
        "roundtrip_tail_ms": 1e3 * tail_v,
        "rate_bps": statistics.fmean(rates),
        "rate_over_rd": statistics.fmean(r / ref for r, ref in zip(rates, rd_refs)),
        "distortion": statistics.fmean(dists),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "roundtrip_samples": len(op_s),
        "roundtrip_tail_percentile": tail_pct,
        "rate_gap_bps": statistics.fmean(r - ref for r, ref in zip(rates, rd_refs)),
        "quality_ops": len(tally.quality),
    }
    return metrics, extra


def per_layer(layer_totals, tally, baseline, rounds: int) -> dict[str, float]:
    """Per-round means of the traced rounds' totals; ratios as measured.
    Corrupted decodes run in round 0 only and are reported as counted."""
    import workloads

    metrics = {k: v if k.rsplit(".", 1)[-1] in RATIOS else v / rounds
               for k, v in layer_totals.items()}
    for cls in workloads.CORRUPT_CLASSES:
        metrics[f"codec.decode.corrupt_{cls}"] = tally.corrupt[cls]
    metrics["codec.decode.corrupt_s"] = tally.corrupt_s
    metrics["trace.overhead_share"] = tally.busy_s / baseline.busy_s - 1.0
    return metrics


def environment(workload) -> dict:
    import numpy
    from ffsc import _kernels

    return {
        "backend": "numba" if _kernels.HAVE_NUMBA else "python",
        "cores": len(os.sched_getaffinity(0)),
        "harness_workers": getattr(workload, "workers", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
        "src_sha256": _tree_sha256(SRC),
    }


def _git_rev() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repo
    (the ceiling stops git from reporting an enclosing repository)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def timed_setup(name: str) -> float:
    """Import, config and solver build, and one warm-up op, in seconds."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name]().warm_up()
    return time.perf_counter() - t0


def probe_setup(name: str) -> float:
    """timed_setup in a fresh interpreter, so every sample imports cold."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", name],
        cwd=ROOT, text=True, capture_output=True, timeout=170,
    )
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed: {out.stderr.strip()[-2000:]}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(wl, seed: int, seconds: float, trace: bool, setup_s: float = 0.0):
    """Run rounds of `wl` for `seconds` (at least one) and reduce them.

    Every round runs the seed's same inputs, and each op keeps its
    fastest time over the rounds.  Untraced, the rounds run back to back.
    Traced, each round runs twice, untraced and then traced, so the
    traced rounds' per-layer totals come with a same-input untraced
    baseline for the overhead.  Returns (metrics, extra, tallies).
    """
    import spans
    import workloads

    plain = workloads.Tally()
    traced = workloads.Tally()
    tracer = spans.Tracer()
    traced.quiet = tracer.suspended
    inp = wl.inputs(seed)
    deadline = time.perf_counter() + seconds
    rounds = 0
    with wl.session():
        while rounds == 0 or time.perf_counter() < deadline:
            wl.run_round(inp, plain, rounds == 0)
            if trace:
                with spans.installed(tracer):
                    wl.run_round(inp, traced, rounds == 0)
            rounds += 1

    if trace:
        totals, status = spans.layer_metrics(tracer.spans)
        metrics = per_layer(totals, traced, plain, rounds)
        extra = {"kernel_status": status}
        tallies = [plain, traced]
        if traced.digest.digest() != plain.digest.digest():
            traced.problems.append("tracing changed the round-0 bitstreams")
    else:
        metrics, extra = end_to_end(plain, setup_s)
        tallies = [plain]
    extra["rounds"] = rounds
    extra["bitstream_sha256"] = plain.digest.hexdigest()
    extra["corrupt"] = dict(plain.corrupt)
    return metrics, extra, tallies


def result(metrics: dict, tallies: list, trace: bool) -> dict:
    """The result line: the metrics BENCHMARK.json names for this mode,
    with its units.  A per-layer metric a workload never touches is 0."""
    spec = json.loads(BENCHMARK.read_text())
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = metrics[m["name"]] if not trace else metrics.get(m["name"], 0.0)
        out[m["name"]] = {"value": float(value), "unit": m["unit"]}
    problems = [q for t in tallies for q in t.problems]
    return {"correct": not problems,
            "attempted": sum(t.attempted for t in tallies),
            "failed": sum(t.failed for t in tallies),
            "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=str(HERE / "results" / "runs.jsonl"),
                    help="JSON-lines file each run appends its record to "
                         "('' to skip)")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "ffsc" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'ffsc'} not found; run from the root of "
              f"an ffsc checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.probe_setup:
        print(json.dumps({"setup_s": timed_setup(args.workload)}))
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_s = 0.0
    if not args.trace:  # a traced run does not report setup_s
        setup_s = statistics.median(probe_setup(args.workload)
                                    for _ in range(SETUP_PROBES))
    wl = workloads.WORKLOADS[args.workload]()
    wl.warm_up()
    metrics, extra, tallies = run_workload(wl, args.seed, args.seconds,
                                           bool(args.trace), setup_s)

    res = result(metrics, tallies, bool(args.trace))
    for name, m in res["metrics"].items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    context = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "failed_share": res["failed"] / res["attempted"],
               "env": environment(wl),
               "problems": [q for t in tallies for q in t.problems][:20], **extra}
    print("context " + json.dumps(context, sort_keys=True))
    if args.record:
        path = Path(args.record)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            fh.write(json.dumps(dict(context, **res, seconds=args.seconds,
                                     all_metrics=metrics), sort_keys=True) + "\n")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
