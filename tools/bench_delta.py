#!/usr/bin/env python3
"""Bench-delta guard: fail CI when a perf scenario's host cost regresses.

Compares perf_suite runs of a change against runs of its base commit made
on the same machine in the same job, and flags any scenario whose host
ns/op regressed by more than 25%, or whose global allocations per op grew
by more than 2% and by more than 0.05. It guards host cost only:
perf_suite's simulated fields and its shape rules are pinned by the
golden_perf_suite ctest (bench/expected/perf_suite.txt).

A scenario's op count is its fixed work (syscalls, flowops, requests);
its simulated IO count is an outcome of the stack. Host time per op is
therefore the cost of the same work on both sides. Per IO it is not: a
change that removes IOs (say, checkpoint copies) while making each op
cheaper reads as a regression per IO, and one that adds IOs reads as a
gain.

Both sides run on the same runner, alternating base and change runs, so
each scenario is compared with the base directly: no cross-scenario
normalization. (Dividing every ratio by the median ratio, as a committed
baseline from another machine needed, makes an uneven speed-up read as a
slowdown of the scenarios that gained least, and lets a uniform slowdown
pass.)

Run-to-run noise on a shared runner easily exceeds 25% per scenario, so
both sides use per-scenario minima over their runs (the standard
noise-robust benchmark estimator) before comparing. Allocations per op are
an exact count, the same in every run, so their bounds need no noise
allowance: 2% is BENCHMARK.json's host_allocs_per_op bound, and 0.05 per
op keeps a scenario that allocates almost nothing from failing on one
extra allocation. A base run without global_allocs_per_op (one made before
perf_suite wrote the field) skips that check with a note.

Usage:
  tools/bench_delta.py --base <base.json>... --change <change.json>...

Exit codes: 0 ok, 1 regression found, 2 usage or schema error.
"""

import argparse
import json
import sys

THRESHOLD = 1.25  # change/base ns/op ratio above which a scenario regressed
ALLOCS_RATIO = 1.02  # change/base allocs/op ratio ...
ALLOCS_SLACK = 0.05  # ... and allocs/op difference above which both fail


def load_metric(path, key):
    """{scenario name: value of `key`} for every scenario that reports one."""
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
    return {s["name"]: s[key]
            for s in doc.get("scenarios", []) if s.get(key) is not None}


def minima(paths, key="ns_per_op"):
    """Per-scenario minimum of `key` over the runs in `paths`."""
    out = {}
    for path in paths:
        for name, v in load_metric(path, key).items():
            out[name] = min(v, out.get(name, v))
    return out


def more_allocs(base_paths, change_paths):
    """Scenarios whose allocs/op exceed the base's by both bounds."""
    base = minima(base_paths, "global_allocs_per_op")
    if not base:
        print("  note: the base runs carry no global_allocs_per_op; "
              "allocations per op not compared")
        return []
    change = minima(change_paths, "global_allocs_per_op")
    grown = []
    for name in sorted(set(base) & set(change)):
        b, c = base[name], change[name]
        if c > b * ALLOCS_RATIO and c > b + ALLOCS_SLACK:
            print(f"  {name:24s} allocs/op base {b:8.3f}  change {c:8.3f}  "
                  "MORE")
            grown.append(name)
    return grown


def main():
    parser = argparse.ArgumentParser(
        description="Fail when a perf_suite scenario's ns/op or allocs/op "
                    "regresses against same-machine runs of the base commit.")
    parser.add_argument("--base", nargs="+", required=True,
                        metavar="JSON", help="perf_suite runs of the base")
    parser.add_argument("--change", nargs="+", required=True,
                        metavar="JSON", help="perf_suite runs of the change")
    args = parser.parse_args()
    base = minima(args.base)
    change = minima(args.change)

    ratios = {}
    for name, ns in change.items():
        if name in base:
            ratios[name] = ns / base[name]
        else:
            print(f"  new scenario (no base run): {name}")
    if not ratios:
        print("bench_delta: no comparable ns/op scenarios", file=sys.stderr)
        sys.exit(2)

    print(f"bench_delta: {len(ratios)} scenarios, per-scenario min ns/op "
          f"over {len(args.change)} change and {len(args.base)} base runs")
    regressed = []
    for name in sorted(ratios):
        flag = "REGRESSED" if ratios[name] > THRESHOLD else "ok"
        print(f"  {name:24s} base {base[name]:9.1f}  change "
              f"{change[name]:9.1f}  ratio {ratios[name]:6.3f}  {flag}")
        if ratios[name] > THRESHOLD:
            regressed.append(name)
    grown = more_allocs(args.base, args.change)
    if regressed:
        print(f"bench_delta: FAIL: {len(regressed)} scenario(s) "
              f">{(THRESHOLD - 1) * 100:.0f}% slower than the base: "
              f"{', '.join(regressed)}")
    if grown:
        print(f"bench_delta: FAIL: {len(grown)} scenario(s) allocate more "
              f"per op than the base (>{(ALLOCS_RATIO - 1) * 100:.0f}% and "
              f">{ALLOCS_SLACK} more): {', '.join(grown)}")
    if regressed or grown:
        sys.exit(1)
    print("bench_delta: ok")
    sys.exit(0)


if __name__ == "__main__":
    main()
