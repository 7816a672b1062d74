#!/usr/bin/env python3
"""iobench runner: builds the benchmark from the checkout's sources, runs
each workload in its own process on one host thread, checks the outcome and
prints every metric by name with its unit.

  python3 iobench/run.py --workload sqlite-bfs --seed 1 --seconds 15 --trace 0
      one workload; the last stdout line is the result object
      {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
      with the end-to-end metrics (--trace 0) or the per-layer metrics
      (--trace 1: the traced run, which also writes trace.json and
      layers.json to <--trace-dir>/<workload>-seed<n>/)
  python3 iobench/run.py --seed 1 --out results.json
      every workload; results.json feeds compare.py
  python3 iobench/run.py --parity     generators vs the library workloads
  python3 iobench/run.py --smoke      every workload at ~1/50 length

The build goes to $CARGO_TARGET_DIR/iobench (default .bench_build/iobench),
relative to the checkout root. Metric names and units come from
BENCHMARK.json at the checkout root; a run whose output does not match it
is not correct. Exit status is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = Path(__file__).resolve().parent
# The binary's own wall-clock allowance; the whole run must end in 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg: str, code: int = 1) -> int:
    print(f"iobench: {msg}", file=sys.stderr)
    return code


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "iobench"


def build() -> Path:
    """Configures (once) and builds; returns the binary. Raises on failure."""
    if not (ROOT / "src" / "core" / "stack.h").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(out / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(SOURCE_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT_S).returncode
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                raise RuntimeError(f"build failed ({' '.join(cmd)}):\n{tail}")
    binary = out / "iobench"
    if not binary.is_file():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def run_binary(binary: Path, args: list[str]) -> tuple[int, dict | None]:
    """Runs iobench; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        return proc.returncode, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode, None


def finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def result_of(spec: dict, raw: dict, traced: bool, smoke: bool) -> dict:
    """The result object for one workload run. A smoke run is too short for
    some p99s (fewer than 1000 samples); those read null."""
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    values = raw["per_layer"] if traced else raw["e2e"]
    metrics = {}
    complete = set(values) == {m["name"] for m in listed}
    for m in listed:
        v = values.get(m["name"])
        complete = complete and (finite(v) or (smoke and v is None))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {
        "correct": bool(raw["correct"]) and complete,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }


def print_metrics(workload: str, result: dict, raw: dict) -> None:
    print(f"== {workload}  (correct: {result['correct']}, attempted "
          f"{result['attempted']}, failed {result['failed']}, samples "
          f"{raw['samples']}, checks {raw['checks']})")
    for name, m in result["metrics"].items():
        v = m["value"]
        shown = f"{v:.6g}" if finite(v) else str(v)
        print(f"  {name:<44} {shown:>14} {m['unit']}")


def run_workload(binary: Path, spec: dict, workload: str, seed: int,
                 seconds: int, traced: bool, trace_dir: str | None,
                 smoke: bool) -> tuple[dict, dict] | None:
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if smoke:
        args.append("--smoke")
    if traced:
        base = Path(trace_dir) if trace_dir else build_dir() / "trace"
        tdir = base / f"{workload}-seed{seed}"
        tdir.mkdir(parents=True, exist_ok=True)
        args += ["--trace-dir", str(tdir)]
    rc, raw = run_binary(binary, args)
    if raw is None:
        fail(f"{workload}: no result (exit {rc})")
        return None
    result = result_of(spec, raw, traced, smoke)
    if rc != 0:
        result["correct"] = False
    return result, raw


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dir")
    ap.add_argument("--out")
    ap.add_argument("--parity", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if a.workload is not None and a.workload not in names:
            return fail(f"unknown workload {a.workload!r} (have {names})", 2)
        seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
        if a.seed < 0 or not 1 <= seconds <= 3600:
            return fail("want --seed >= 0 and 1 <= --seconds <= 3600", 2)
        binary = build()
        if a.parity:
            return subprocess.run([str(binary), "--parity"],
                                  timeout=RUN_TIMEOUT_S).returncode
        workloads = [a.workload] if a.workload else names
        results, raws = {}, {}
        for w in workloads:
            got = run_workload(binary, spec, w, a.seed, seconds,
                               a.trace == 1, a.trace_dir, a.smoke)
            if got is None:
                return 1
            results[w], raws[w] = got
            print_metrics(w, *got)
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.TimeoutExpired) as e:
        return fail(str(e))

    ok = all(r["correct"] for r in results.values())
    if a.out:
        with open(a.out, "w", encoding="utf-8") as f:
            json.dump({"schema": "iobench/1", "seed": a.seed,
                       "seconds": seconds, "trace": a.trace,
                       "smoke": a.smoke, "results": results, "raw": raws},
                      f, indent=1)
    if a.workload:
        print(json.dumps(results[a.workload]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
