"""Tests of the benchmark itself: generators, self time, metric emission.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name: str):
    """Each workload at smoke size; hamming-trials still meets its bands."""
    return {
        "hamming-trials": lambda: workloads.HammingTrials(trials=2, min_block=1024),
        "short-streams": lambda: workloads.ShortStreams(streams=8),
    }[name]()


def canonical(inp) -> bytes:
    """Bytes that identify a round's inputs, for equality tests."""
    if isinstance(inp, int):
        return str(inp).encode()
    return b"|".join(
        st.source.tobytes() + repr((st.cfg.seed, st.corruption)).encode()
        for st in inp)


def test_workload_names_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_deterministic_per_seed_and_differs_across_seeds(name):
    wl = small(name)
    assert canonical(wl.inputs(7)) == canonical(wl.inputs(7))
    assert canonical(wl.inputs(7)) != canonical(wl.inputs(8))


def test_keep_best_keeps_the_fastest_time():
    table = {}
    for seconds in (3.0, 1.0, 2.0):
        workloads.keep_best(table, "op", 5, seconds)
    assert table == {"op": (5, 1.0)}


def test_short_streams_corrupt_every_fourth_stream_on_both_channels():
    streams = small("short-streams").inputs(3)
    corrupted = [i for i, st in enumerate(streams) if st.corruption]
    assert corrupted == [3, 7]
    assert {streams[i].cfg.prior.alphabet.size for i in corrupted} == {3, 4}


def test_corrupt_kinds():
    data = bytes(range(10))
    assert workloads.corrupt(data, ("flip", 0.0, b"")) == b"\x80" + data[1:]
    assert workloads.corrupt(data, ("truncate", 0.5, b"")) == data[:5]
    assert workloads.corrupt(data, ("junk", 0.0, b"xy")) == data + b"xy"


def _span(name, start, end, parent=None, thread=0):
    return spans.Span(name, start, end, parent, thread)


def test_self_time_subtracts_union_of_children():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0, thread=1),
        _span("b", 3.0, 6.0, parent=0, thread=2),     # overlaps a
        _span("a.child", 2.0, 3.0, parent=1, thread=1),
        _span("late", 9.0, 12.0, parent=0, thread=1),  # clipped at 10
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_count_shape_retries():
    tree = [
        _span("shaping.shape", 0.0, 5.0),
        _span("kernels.shape_kernel", 0.0, 2.0, parent=0),
        _span("kernels.shape_kernel", 2.0, 5.0, parent=0),
    ]
    tree[1].attrs.update(symbols=10, status=4)    # NEED_MORE_SYM
    tree[2].attrs.update(symbols=15, status=0)    # OK
    totals, status = spans.layer_metrics(tree)
    assert totals["shaping.shape.retries"] == 1
    assert totals["shaping.shape.retry_s"] == pytest.approx(2.0)
    assert totals["shaping.shape.useful_ratio"] == pytest.approx(0.5)
    assert totals["shaping.shape.self_s"] == pytest.approx(0.0)
    assert totals["kernels.shape_kernel.need_more"] == 1
    assert totals["kernels.shape_kernel.sym_per_s"] == pytest.approx(5.0)
    assert status == {"kernels.shape_kernel": {"NEED_MORE_SYM": 1, "OK": 1}}


def test_worker_thread_spans_take_the_home_threads_open_span_as_parent():
    tracer = spans.Tracer()
    harness = tracer.begin("harness")
    worker = threading.Thread(target=lambda: tracer.end(tracer.begin("trial")))
    worker.start()
    worker.join(timeout=10)
    tracer.end(harness)
    assert not worker.is_alive()
    assert [(s.name, s.parent) for s in tracer.spans] == [("harness", None), ("trial", 0)]


def test_shims_are_removed_after_the_traced_block():
    from ffsc import _kernels, codec

    before = (codec.shape, _kernels.shape_kernel, codec.CodecConfig.quantized)
    with spans.installed(spans.Tracer()):
        assert codec.shape is not before[0]
    assert (codec.shape, _kernels.shape_kernel, codec.CodecConfig.quantized) == before


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail(list(range(21))) == (10, 100 * 11 / 21)
    assert run.tail(list(range(12))) == (11, 100.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_named_metric_with_its_unit(name, trace):
    wl = small(name)
    wl.warm_up()
    metrics, extra, tallies = run.run_workload(wl, 5, 0.0, trace, setup_s=0.1)
    res = run.result(metrics, tallies, trace)
    assert res["correct"], [p for t in tallies for p in t.problems]
    assert res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert len(extra["bitstream_sha256"]) == 64
    assert res["failed"] == 0


def test_traced_runs_compute_every_per_layer_metric_somewhere():
    computed = {}
    for name in sorted(workloads.WORKLOADS):
        computed[name], _, _ = run.run_workload(small(name), 1, 0.0, True)
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names <= set().union(*computed.values())
    assert computed["hamming-trials"]["shaping.shape.retries"] > 0
    assert computed["short-streams"]["shaping.shape.retries"] == 0
    assert computed["hamming-trials"]["experiments.cpu_per_wall"] > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short-streams", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_compare_flags_a_rise_in_failures(tmp_path):
    metrics = {m["name"]: {"value": 1.0} for m in SPEC["end_to_end"]}
    rec = {"workload": "short-streams", "trace": 0, "metrics": metrics, "seed": 7,
           "attempted": 100, "failed": 0, "corrupt": {"typed": 24, "silent_wrong": 1},
           "env": {"backend": "python", "cores": 2}}
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(json.dumps(rec) + "\n")
    new.write_text(json.dumps(dict(rec, attempted=120)) + "\n")
    assert compare.main([str(base), str(new)]) == 0
    new.write_text(json.dumps(dict(rec, failed=1)) + "\n")
    assert compare.main([str(base), str(new)]) == 1
    new.write_text(json.dumps(dict(rec, corrupt={"typed": 23, "untyped": 2})) + "\n")
    assert compare.main([str(base), str(new)]) == 1


def test_compare_refuses_different_backends(tmp_path):
    rec = {"workload": "hamming-trials", "trace": 0, "metrics": {},
           "env": {"backend": "python", "cores": 2}}
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(json.dumps(rec) + "\n")
    rec["env"] = {"backend": "numba", "cores": 2}
    new.write_text(json.dumps(rec) + "\n")
    assert compare.main([str(base), str(new)]) == 2
