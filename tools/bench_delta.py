#!/usr/bin/env python3
"""Bench-delta guard: fail CI when a perf scenario's host ns/io regresses.

Compares fresh BENCH_perf.json runs against a baseline run and flags any
scenario whose ns/io regressed by more than 25%. It guards host time only:
perf_suite's simulated fields and its shape rules are pinned by the
golden_perf_suite ctest (bench/expected/perf_suite.txt).

The baseline and the fresh runs come from different machines (the committed
run is a Release run on a dev box; CI runs on a shared runner), so raw
ns/io ratios carry a machine-speed factor. The guard removes it by
normalizing every scenario's ratio by the median ratio across scenarios: a
uniform slowdown (slower runner) passes, while one scenario regressing
relative to the rest — the signature of an actual hot-path regression —
fails.

Run-to-run noise on a shared runner easily exceeds 25% per scenario, so
both sides use per-scenario minima: the committed baseline is the
per-scenario best of several runs, and the guard takes each scenario's
minimum ns/io across the fresh runs (the standard noise-robust benchmark
estimator) before comparing.

Usage:
  tools/bench_delta.py <baseline.json> <fresh.json> [<fresh2.json> ...]

Exit codes: 0 ok, 1 regression found, 2 usage or schema error.
"""

import json
import statistics
import sys

THRESHOLD = 1.25  # normalized ns/io ratio above which a scenario regressed


def load_ns_per_io(path):
    """{scenario name: ns_per_io} for every scenario that reports one."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_delta: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "bio-perf/1":
        print(f"bench_delta: {path}: unexpected schema "
              f"{doc.get('schema')!r}", file=sys.stderr)
        sys.exit(2)
    return {s["name"]: s["ns_per_io"]
            for s in doc.get("scenarios", []) if s.get("ns_per_io")}


def main():
    if len(sys.argv) < 3 or any(a.startswith("-") for a in sys.argv[1:]):
        print("usage: bench_delta.py <baseline.json> <fresh.json> "
              "[<fresh2.json> ...]", file=sys.stderr)
        sys.exit(2)
    base = load_ns_per_io(sys.argv[1])
    fresh = {}
    for path in sys.argv[2:]:
        for name, ns in load_ns_per_io(path).items():
            fresh[name] = min(ns, fresh.get(name, ns))

    ratios = {}
    for name, ns in fresh.items():
        if name in base:
            ratios[name] = ns / base[name]
        else:
            print(f"  new scenario (no baseline): {name}")
    if not ratios:
        print("bench_delta: no comparable ns/io scenarios", file=sys.stderr)
        sys.exit(2)

    med = statistics.median(ratios.values())
    print(f"bench_delta: {len(ratios)} scenarios, median ns/io ratio "
          f"{med:.3f} (machine-speed factor, divided out)")
    regressed = []
    for name in sorted(ratios):
        norm = ratios[name] / med
        flag = "REGRESSED" if norm > THRESHOLD else "ok"
        print(f"  {name:24s} ratio {ratios[name]:6.3f}  "
              f"normalized {norm:6.3f}  {flag}")
        if norm > THRESHOLD:
            regressed.append(name)
    if regressed:
        print(f"bench_delta: FAIL: {len(regressed)} scenario(s) "
              f">{(THRESHOLD - 1) * 100:.0f}% over the fleet-normalized "
              f"baseline: {', '.join(regressed)}")
        sys.exit(1)
    print("bench_delta: ok")
    sys.exit(0)


if __name__ == "__main__":
    main()
