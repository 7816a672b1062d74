#!/usr/bin/env python3
"""Allocation census: which call sites make iobench's host_allocs_per_op?

iobench counts every global operator new inside each rep's measured window
(iobench/alloc_count.cc). This script attributes those calls to source
lines, on a scratch copy of the tree, never on the checkout itself:

  1. copies the working tree (tracked and untracked, not ignored files) or
     `--rev`'s tree to the scratch directory, and replaces the copy's
     iobench/alloc_count.cc with a census variant that also records the
     call stack (backtrace(), a fixed-size table) of every operator new in
     the last measured window;
  2. builds the copy's iobench in Release with frame pointers, debug info
     and absolute addresses (-no-pie);
  3. runs one workload, so the last window is a steady-state rep of the
     benchmark's own run length;
  4. symbolizes every distinct return address once (addr2line), charges
     each stack to its innermost src/ or iobench/ file:line outside
     src/sim/, and prints allocations per op by site. A stack with no such
     frame (a coroutine body whose stack does not unwind past its resume)
     is counted on a line of its own.

The census total per op matches the run's e2e host_allocs_per_op (the
median over reps) when the reps allocate alike, which they do once the
first rep warmed the thread-local frame pool.

Usage:
  tools/alloc_census.py <workload> [--seed N] [--rev REV] [--scratch DIR]

It runs BENCHMARK.json's run length and prints every site.

--scratch keeps the copy and its build in DIR for the next call (an
incremental rebuild); without it a temporary directory is used and removed.
Needs git, cmake, a C++20 compiler and binutils' addr2line.
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

ROOT = Path(__file__).resolve().parent.parent

CENSUS_ALLOC_COUNT = r"""// Census variant of iobench/alloc_count.cc, written by tools/alloc_census.py
// into a scratch copy. Besides the counter, every operator new inside the
// last measured window records its call stack; a static object's
// destructor writes "count pc0 pc1 ..." lines to $ALLOC_CENSUS_OUT.
#include <execinfo.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {
constexpr int kDepth = 12;
constexpr std::size_t kSlots = std::size_t{1} << 16;  // a power of two

struct Slot {
  std::uint64_t count;
  int depth;
  void* pcs[kDepth];
};

std::uint64_t g_new_calls = 0;
Slot* g_table = nullptr;  // calloc'ed: not an operator new
std::uint64_t g_lost = 0;  // stacks that found the table full
bool g_recording = false;
bool g_busy = false;  // backtrace() may allocate on its first call

void record() {
  if (!g_recording || g_busy) return;
  g_busy = true;
  void* pcs[kDepth];
  const int depth = backtrace(pcs, kDepth);
  std::uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < depth; ++i) {
    h ^= reinterpret_cast<std::uintptr_t>(pcs[i]);
    h *= 1099511628211ull;
  }
  for (std::size_t probe = 0; probe < kSlots; ++probe) {
    Slot& s = g_table[(h + probe) & (kSlots - 1)];
    if (s.count == 0) {
      s.count = 1;
      s.depth = depth;
      std::memcpy(s.pcs, pcs, sizeof(void*) * static_cast<std::size_t>(depth));
      g_busy = false;
      return;
    }
    if (s.depth == depth &&
        std::memcmp(s.pcs, pcs,
                    sizeof(void*) * static_cast<std::size_t>(depth)) == 0) {
      ++s.count;
      g_busy = false;
      return;
    }
  }
  ++g_lost;
  g_busy = false;
}

struct Dump {
  ~Dump() {
    const char* path = std::getenv("ALLOC_CENSUS_OUT");
    if (path == nullptr || g_table == nullptr) return;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return;
    std::fprintf(f, "lost %llu\n", static_cast<unsigned long long>(g_lost));
    for (std::size_t i = 0; i < kSlots; ++i) {
      const Slot& s = g_table[i];
      if (s.count == 0) continue;
      std::fprintf(f, "%llu", static_cast<unsigned long long>(s.count));
      for (int d = 0; d < s.depth; ++d) std::fprintf(f, " %p", s.pcs[d]);
      std::fprintf(f, "\n");
    }
    std::fclose(f);
  }
} g_dump;
}  // namespace

namespace iobench {
// iobench reads the counter exactly at the start and at the end of each
// rep's measured window: record inside windows, keep the last one.
std::uint64_t new_calls() noexcept {
  g_recording = !g_recording;
  if (g_recording) {
    if (g_table == nullptr) {
      g_table = static_cast<Slot*>(std::calloc(kSlots, sizeof(Slot)));
      void* warm[1];
      backtrace(warm, 1);
    } else {
      std::memset(g_table, 0, kSlots * sizeof(Slot));
    }
    g_lost = 0;
  }
  return g_new_calls;
}
}  // namespace iobench

void* operator new(std::size_t n) {
  ++g_new_calls;
  record();
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_new_calls;
  record();
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
"""

UNATTRIBUTED = "(no src/ or iobench/ frame outside src/sim/)"


def run(cmd: list[str], **kw) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, check=True, **kw)


def copy_tree(dest: Path, rev: str | None) -> None:
    """Writes the tree into `dest`, keeping file mtimes (so a kept scratch
    directory rebuilds incrementally)."""
    dest.mkdir(parents=True, exist_ok=True)
    if rev is not None:
        archive = run(["git", "-C", str(ROOT), "archive", rev],
                      stdout=subprocess.PIPE).stdout
    else:
        files = run(["git", "-C", str(ROOT), "ls-files", "-z", "-c", "-o",
                     "--exclude-standard"], stdout=subprocess.PIPE).stdout
        # --ignore-failed-read: a tracked file deleted in the working tree.
        archive = run(["tar", "-C", str(ROOT), "--ignore-failed-read",
                       "--null", "-T", "-", "-cf", "-"], input=files,
                      stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
                      ).stdout
    run(["tar", "-C", str(dest), "-xf", "-"], input=archive)
    census = dest / "iobench" / "alloc_count.cc"
    if not census.is_file() or census.read_text() != CENSUS_ALLOC_COUNT:
        census.write_text(CENSUS_ALLOC_COUNT)


def build(copy: Path) -> Path:
    out = copy / "census-build"
    log = copy / "census-build.log"
    with open(log, "w") as f:
        if not (out / "CMakeCache.txt").is_file():
            run(["cmake", "-S", str(copy / "iobench"), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DCMAKE_CXX_FLAGS=-fno-omit-frame-pointer -g",
                 "-DCMAKE_EXE_LINKER_FLAGS=-no-pie"],
                stdout=f, stderr=subprocess.STDOUT)
        jobs = str(min(4, os.cpu_count() or 1))
        run(["cmake", "--build", str(out), "-j", jobs], stdout=f,
            stderr=subprocess.STDOUT)
    return out / "iobench"


def symbolize(binary: Path, pcs: set[int]) -> dict[int, list[tuple]]:
    """Return address -> inline chain of (function, file:line), innermost
    first, for the call instruction before it."""
    order = sorted(pcs)
    text = run(["addr2line", "-f", "-i", "-C", "-a", "-e", str(binary)],
               input="".join(f"{pc - 1:#x}\n" for pc in order),
               stdout=subprocess.PIPE, text=True).stdout
    chains: dict[int, list[tuple]] = {}
    lines = text.splitlines()
    i = 0
    for pc in order:
        while i < len(lines) and not lines[i].startswith("0x"):
            i += 1
        i += 1  # the echoed address
        chain = []
        while i + 1 < len(lines) and not lines[i].startswith("0x"):
            chain.append((lines[i], lines[i + 1]))
            i += 2
        chains[pc] = chain
    return chains


def site_of(stack: list[int], chains: dict[int, list[tuple]],
            copy: Path) -> str:
    prefix = str(copy) + "/"
    for pc in stack:
        for _func, loc in chains.get(pc, []):
            path = loc.split(" ")[0]
            if not path.startswith(prefix):
                continue
            rel = path[len(prefix):]
            if rel.startswith("src/sim/") or rel == "iobench/alloc_count.cc" \
                    or rel.startswith("iobench/alloc_count.cc:"):
                continue
            if rel.startswith("src/") or rel.startswith("iobench/"):
                return rel
    return UNATTRIBUTED


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rev", help="census this commit instead of the "
                    "working tree")
    ap.add_argument("--scratch", help="keep the copy and its build here")
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = int(spec["run_seconds"])
    scratch = Path(a.scratch).resolve() if a.scratch else None
    if scratch is not None and (scratch == ROOT or ROOT in scratch.parents):
        print("alloc_census: --scratch must be outside the checkout",
              file=sys.stderr)
        return 2
    tmp = None
    if scratch is None:
        tmp = tempfile.mkdtemp(prefix="alloc-census-")
        scratch = Path(tmp)
    try:
        copy = scratch / "tree"
        copy_tree(copy, a.rev)
        binary = build(copy)
        out = scratch / "census.txt"
        env = dict(os.environ, ALLOC_CENSUS_OUT=str(out))
        proc = run([str(binary), "--workload", a.workload, "--seed",
                    str(a.seed), "--seconds", str(seconds)],
                   stdout=subprocess.PIPE, text=True, env=env)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ops = int(result["samples"]["op"])
        e2e = result["e2e"]["host_allocs_per_op"]

        stacks = []
        lost = 0
        for line in out.read_text().splitlines():
            fields = line.split()
            if fields[0] == "lost":
                lost = int(fields[1])
                continue
            stacks.append((int(fields[0]), [int(x, 16) for x in fields[1:]]))
        chains = symbolize(binary, {pc for _, st in stacks for pc in st})
        sites: dict[str, int] = defaultdict(int)
        for count, stack in stacks:
            sites[site_of(stack, chains, copy)] += count
        total = sum(sites.values())

        print(f"{a.workload} seed {a.seed}, {seconds} s "
              f"({a.rev or 'working tree'}): last rep {ops} ops, "
              f"{total} operator new calls = {total / ops:.5f} per op; "
              f"e2e host_allocs_per_op {e2e:.5f}")
        if lost:
            print(f"  {lost} calls found the stack table full (not shown)")
        for site, count in sorted(sites.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
            print(f"  {count / ops:9.5f}  {count:8d}  {site}")
    except subprocess.CalledProcessError as e:
        print(f"alloc_census: {' '.join(map(str, e.cmd))} failed "
              f"(exit {e.returncode}); build log in the scratch copy's "
              f"census-build.log", file=sys.stderr)
        return 1
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
