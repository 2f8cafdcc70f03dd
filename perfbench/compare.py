#!/usr/bin/env python3
"""Summarise benchmark records, or compare a new set against a base set.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the records ``perfbench/run.py --record`` appends, one
per run.  For every workload and end-to-end metric of the untraced runs
this prints the median and the spread (distance between the first and
third quartiles as a share of the median).  Given NEW, it also prints
how much worse NEW's median is than BASE's, as a share of BASE's, and
flags any metric worse by more than its bound in BENCHMARK.json.
It also prints each workload's median ``failed_share`` (failed ops /
attempted ops) and flags a rise from BASE to NEW, since a speed-up does
not count when more ops fail.  Every round of a run repeats the seed's
inputs, so the share does not depend on how many rounds fit.  Corrupted
decodes are not ops; over the seeds both sets ran, it sums the ones that
ended badly (silent wrong, untyped error, over time) and flags a rise.

Records whose kernel backend or core count differ are not comparable:
the script refuses them (exit 2).  Exit 1 flags a spread or a
regression beyond a bound, or a rise in ``failed_share``; ``setup_s``
spreads are shown but not flagged, since set-up time is compared by
median only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Corrupted-decode outcome classes (workloads.CORRUPT_CLASSES) that are defects.
BAD_CORRUPT = ("silent_wrong", "untyped", "overtime")


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def environments(records: list[dict]) -> set[tuple]:
    return {(r["env"]["backend"], r["env"]["cores"]) for r in records}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median) as statistics gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def compare(base: list[dict], new: list[dict] | None, spec: dict) -> tuple[list[str], bool]:
    """Table rows and whether any metric is beyond its bound."""
    rows, flagged = [], False
    groups = {}
    for label, records in (("base", base), ("new", new or [])):
        for r in records:
            if r["trace"] == 0:
                groups.setdefault(r["workload"], {}).setdefault(label, []).append(r)
    for workload in sorted(groups):
        sets = groups[workload]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells = [f"{workload:<16} {name:<18}"]
            meds = {}
            for label in ("base", "new"):
                if label not in sets:
                    continue
                vals = [r["metrics"][name]["value"] for r in sets[label]]
                med, sp = spread(vals)
                meds[label] = med
                bad = name != "setup_s" and sp > bound
                flagged |= bad
                cells.append(f"{label} n={len(vals):<3} median={med:<12.6g} "
                             f"spread={sp:6.1%}{' > bound' if bad else ''}")
            if len(meds) == 2 and meds["base"]:
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (meds["new"] - meds["base"]) / abs(meds["base"])
                bad = worse > bound
                flagged |= bad
                cells.append(f"worse by {worse:+.1%} (bound {bound:.0%})"
                             f"{'  REGRESSION' if bad else ''}")
            rows.append("  ".join(cells))
        rows.append(_failed_row(workload, sets))
        flagged |= rows[-1].endswith("MORE FAILURES")
    return rows, flagged


def _failed_row(workload: str, sets: dict) -> str:
    """Median failed_share of each set, and the badly ended corrupted
    decodes summed over the seeds both sets ran; flags a rise in either."""
    cells = [f"{workload:<16} {'failed_share':<18}"]
    meds = {}
    for label in ("base", "new"):
        if label in sets:
            meds[label] = statistics.median(r["failed"] / r["attempted"]
                                            for r in sets[label])
            cells.append(f"{label} median={meds[label]:.6f}")
    if len(sets) == 2:
        bad = {label: {r["seed"]: sum(r.get("corrupt", {}).get(c, 0) for c in BAD_CORRUPT)
                       for r in sets[label]}
               for label in sets}
        seeds = bad["base"].keys() & bad["new"].keys()
        base, new = (sum(bad[label][s] for s in seeds) for label in ("base", "new"))
        cells.append(f"bad corrupted decodes on {len(seeds)} common seeds: "
                     f"base {base}, new {new}")
        if meds["new"] > meds["base"] or new > base:
            cells.append("MORE FAILURES")
    return "  ".join(cells)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else None
    envs = environments(base + (new or []))
    if len(envs) != 1:
        print(f"refusing to compare: records span kernel backends/core counts "
              f"{sorted(envs)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, flagged = compare(base, new, spec)
    print("\n".join(rows))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
