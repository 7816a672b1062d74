#!/usr/bin/env python3
"""Traffic census: which library functions does the traffic never run?

Before deleting code as dead or test-only, measure it. This script builds a
scratch copy of the tree with gcov instrumentation, never the checkout:

  1. copies the working tree (tracked and untracked, not ignored files) or
     `--rev`'s tree to the scratch directory and configures it, and
     iobench, as Debug builds with --coverage -O0 (iobench/run.py keeps an
     existing cache, so the pre-configured cov-iob/iobench makes it build
     and run the coverage binary);
  2. runs the traffic: every figure bench, perf_suite,
     `crash_consistency --smoke` and iobench's `--smoke` and `--parity`,
     then reads every object's function counts (`gcov -j -t`);
  3. runs bio_tests and alloc_budget_test and reads the counts again.

Header functions appear once per object that uses them, and the library
is compiled twice (the root build and iobench), so counts are summed per
(source file, demangled name). A src/ function the traffic never ran is
test-only when the tests ran it and dead when nothing did. Lambdas are
listed under their enclosing function's name, so a zero there may be a
lambda (an error reporter that never fired), not the function. An inline
function no object ever uses is never emitted, so it is not listed at all.

Usage:
  tools/traffic_census.py [--rev REV] [--scratch DIR]

It prints, per source file, the functions the traffic never runs: the
test-only ones with their count in the tests, then the dead ones.

--scratch keeps the copy and its builds in DIR for the next call (an
incremental rebuild); without it a temporary directory is used and removed.
About 7 minutes on 4 vCPUs with a fresh build. Needs git, cmake, GCC with
its gcov and GTest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from alloc_census import ROOT, copy_tree, run

COVERAGE_FLAGS = "-DCMAKE_CXX_FLAGS=--coverage -O0"


def build(copy: Path, log) -> None:
    jobs = str(min(4, os.cpu_count() or 1))
    for src, out in ((copy, copy / "cov"),
                     (copy / "iobench", copy / "cov-iob" / "iobench")):
        if not (out / "CMakeCache.txt").is_file():
            run(["cmake", "-S", str(src), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Debug", COVERAGE_FLAGS],
                stdout=log, stderr=subprocess.STDOUT)
    run(["cmake", "--build", str(copy / "cov"), "-j", jobs], stdout=log,
        stderr=subprocess.STDOUT)


def counts(copy: Path) -> dict[tuple[str, str], int]:
    """(src/ file, demangled name) -> calls, summed over every object."""
    gcda = sorted(str(p) for d in ("cov", "cov-iob")
                  for p in (copy / d).rglob("*.gcda"))
    text = subprocess.run(["xargs", "gcov", "-j", "-t"],
                          input="\n".join(gcda), cwd=copy,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True).stdout
    prefix = str(copy) + "/"
    total: dict[tuple[str, str], int] = defaultdict(int)
    for line in text.splitlines():
        if not line.startswith("{"):
            continue
        for f in json.loads(line)["files"]:
            path = f["file"]
            rel = path[len(prefix):] if path.startswith(prefix) else path
            if not rel.startswith("src/"):
                continue
            for fn in f["functions"]:
                total[(rel, fn["demangled_name"])] += fn["execution_count"]
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", help="census this commit instead of the "
                    "working tree")
    ap.add_argument("--scratch", help="keep the copy and its builds here")
    a = ap.parse_args()

    scratch = Path(a.scratch).resolve() if a.scratch else None
    if scratch is not None and (scratch == ROOT or ROOT in scratch.parents):
        print("traffic_census: --scratch must be outside the checkout",
              file=sys.stderr)
        return 2
    tmp = None
    if scratch is None:
        tmp = tempfile.mkdtemp(prefix="traffic-census-")
        scratch = Path(tmp)
    copy = scratch / "tree"
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    try:
        copy_tree(copy, a.rev)
        with open(copy / "census-build.log", "w") as log:
            build(copy, log)
        for p in list((copy / "cov").rglob("*.gcda")) + \
                list((copy / "cov-iob").rglob("*.gcda")):
            p.unlink()  # a kept scratch copy's earlier census

        cov = copy / "cov"
        for bench in sorted((cov / "bench").iterdir()):
            if bench.name.startswith("fig") or \
                    bench.name == "table1_fsync_latency":
                run([str(bench)], cwd=cov, **quiet)
        run([str(cov / "bench" / "perf_suite"), "--out",
             str(cov / "perf.json")], cwd=cov, **quiet)
        run([str(cov / "examples" / "crash_consistency"), "--smoke",
             "--jobs", "4"], cwd=cov, **quiet)
        env = dict(os.environ, CARGO_TARGET_DIR=str(copy / "cov-iob"))
        for mode in ("--smoke", "--parity"):
            run([sys.executable, "iobench/run.py", mode], cwd=copy, env=env,
                **quiet)
        traffic = counts(copy)

        # A failing test still counts what it ran.
        for test in ("bio_tests", "alloc_budget_test"):
            subprocess.run([str(cov / test)], cwd=cov, **quiet)
        tested = counts(copy)
    except subprocess.CalledProcessError as e:
        print(f"traffic_census: {' '.join(map(str, e.cmd))} failed "
              f"(exit {e.returncode}); build log in the scratch copy's "
              f"census-build.log", file=sys.stderr)
        return 1
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    by_file: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    for (path, name), n in tested.items():
        if traffic.get((path, name), 0) > 0:
            continue
        test_only, dead = by_file[path]
        if n > 0:
            test_only.append((name, n))
        else:
            dead.append(name)
    ran = sum(1 for n in traffic.values() if n > 0)
    n_test_only = sum(len(t) for t, _ in by_file.values())
    n_dead = sum(len(d) for _, d in by_file.values())
    print(f"traffic census ({a.rev or 'working tree'}): {len(tested)} src/ "
          f"functions, {ran} run by the traffic, {n_test_only} test-only, "
          f"{n_dead} dead")
    for path in sorted(by_file):
        test_only, dead = by_file[path]
        print(path)
        for name, n in sorted(test_only):
            print(f"  test-only {n:9d}  {name}")
        for name in sorted(dead):
            print(f"  dead                 {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
