#!/usr/bin/env python3
"""Compare iobench results of two commits, or validate one results file.

  python3 iobench/compare.py A1.json A2.json ... --vs B1.json B2.json ...
  python3 iobench/compare.py --validate results.json

Each file is what `run.py --out` writes (any number of workloads). A is the
parent, B the change; list the runs in the order they were made, so that
A[i] and B[i] form a pair. For every workload and end-to-end metric the
report gives each side's median and quartiles and a verdict:

  better        B's median is better than A's by more than A's own quartile
                spread, and B wins at least 9 of every 10 pairs
  within bound  B's median is not worse than A's by more than the bound
  worse         B's median is worse than A's by more than the bound
  unresolved    A's spread (IQR / median) exceeds the bound, and B's runs
                do not all read better (or all worse) than A's

Bounds and directions come from BENCHMARK.json. Per-layer metrics have no
bound and are listed without a verdict. Exit status 1 on any "worse";
--validate exits 1 when the file does not carry exactly the workloads,
metrics and units BENCHMARK.json names.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(v: list[float]) -> tuple[float, float, float]:
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def collect(paths: list[str]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in file order."""
    out: dict[str, dict[str, list[float]]] = {}
    for p in paths:
        with open(p, encoding="utf-8") as f:
            doc = json.load(f)
        for w, r in doc["results"].items():
            for name, m in r["metrics"].items():
                out.setdefault(w, {}).setdefault(name, []).append(m["value"])
    return out


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    sign = 1 if better == "lower" else -1  # >0 means "worse" after sign
    a1, am, a3 = quartiles(a)
    _, bm, _ = quartiles(b)
    spread = (a3 - a1) / abs(am) if am else 0.0
    worse_by = sign * (bm - am) / abs(am) if am else sign * (bm - am)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound:
        if all_better:
            return "better"
        return "worse" if all_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(a, b)) if len(a) == len(b) else \
        [(x, y) for x in a for y in b]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if sign * (am - bm) > (a3 - a1) and wins >= 0.9 * len(pairs):
        return "better"
    return "within bound"


def compare(a_paths: list[str], b_paths: list[str], spec: dict) -> int:
    a, b = collect(a_paths), collect(b_paths)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    worse = 0
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in a or w not in b:
            continue
        print(f"== {w}  (A: {len(a_paths)} files, B: {len(b_paths)} files)")
        print(f"  {'metric':<40} {'A q1/med/q3':>34} {'B q1/med/q3':>34}"
              f"  verdict")
        for name in a[w]:
            if name not in b[w]:
                continue
            av, bv = a[w][name], b[w][name]
            if not all(isinstance(x, (int, float)) and math.isfinite(x)
                       for x in av + bv):
                print(f"  {name:<40} non-numeric values")
                continue
            fmt = "/".join("{:.5g}" for _ in range(3))
            cols = (fmt.format(*quartiles(av)), fmt.format(*quartiles(bv)))
            if name in e2e:
                m = e2e[name]
                v = verdict(av, bv, m["better"], m["bound"])
                worse += v == "worse"
                tag = f"{v} (bound {m['bound']:g}, {m['better']} is better)"
            elif name in per_layer:
                tag = "-"
            else:
                tag = "not in BENCHMARK.json"
            print(f"  {name:<40} {cols[0]:>34} {cols[1]:>34}  {tag}")
    return 1 if worse else 0


def validate(path: str, spec: dict) -> int:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    traced = doc.get("trace", 0) == 1
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    problems = []
    want = [w["name"] for w in spec["workloads"]]
    if sorted(doc["results"]) != sorted(want):
        problems.append(f"workloads {sorted(doc['results'])} != {want}")
    for w, r in doc["results"].items():
        if not r.get("correct"):
            problems.append(f"{w}: not correct")
        got = r["metrics"]
        if set(got) != set(units):
            missing = sorted(set(units) - set(got))
            extra = sorted(set(got) - set(units))
            problems.append(f"{w}: missing {missing}, unlisted {extra}")
        for name, m in got.items():
            if name in units and m.get("unit") != units[name]:
                problems.append(f"{w}.{name}: unit {m.get('unit')!r} != "
                                f"{units[name]!r}")
            v = m.get("value")
            if v is None and doc.get("smoke"):
                continue  # a smoke run has too few samples for some p99s
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                problems.append(f"{w}.{name}: value {v!r}")
    for p in problems:
        print(f"invalid: {p}")
    if not problems:
        print(f"{path}: valid ({len(doc['results'])} workloads, "
              f"{len(units)} metrics each)")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    with open(SPEC_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    if len(argv) == 2 and argv[0] == "--validate":
        return validate(argv[1], spec)
    if "--vs" in argv:
        i = argv.index("--vs")
        if i > 0 and i + 1 < len(argv):
            return compare(argv[:i], argv[i + 1:], spec)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
