// Example / CLI: the full-stack crash-recovery sweeps.
//
// Each row of the sweep table is one chk::SweepSpec (DESIGN.md §6.7): a
// workload flavour over one or more volumes, run at many randomized power
// cuts. Every point recovers the durable image through fs::Recovery,
// remounts a fresh stack over it and verifies each volume's trace against
// the one crash oracle:
//
//   * EXT4-DR / BFS-DR : a returned fsync/fdatasync implies durable data,
//   * every stack      : per-file epoch-prefix ordering of synced writes
//                        + recovered-namespace consistency (durable
//                        renames/unlinks stick, nothing fabricated),
//   * OptFS / BFS-OD   : delayed durability (prefix now, everything after
//                        the device quiesces),
//   * EXT4-OD          : mounted nobarrier on an orderless device — it
//                        *claims* the EXT4-DR contract and every flavour is
//                        expected to catch it violating (Fig 1).
//
// Flavours: single (one writer per volume, §6), conc (writers sharing
// files through independent fds, §9), ring (linked chains through
// api::Ring, §10) and fault (single plus a seed-derived device fault
// plan, §11.3), at one and four block-layer queues; a two-volume node
// (BFS-DR + EXT4-DR behind one Vfs mount table); and the swallowed-EIO
// negative control, which the fault oracle must catch.
//
// Usage:
//   crash_consistency [--smoke | --parallel-smoke | --points N] [--jobs N]
//   crash_consistency --repro <spec>
//
// --smoke runs 120 points per row (the CI scale: EXT4-OD's first failing
// points are deterministic well inside it); --parallel-smoke runs a short
// all-flavour table (the CI TSan leg's target). --jobs N fans points
// across host threads (default: BIO_SWEEP_JOBS, else hardware
// concurrency); results are bit-identical at any jobs value (§13).
//
// Every failure prints a `--repro` spec,
//   [conc:|ring:|fault:]<stack>[,<stack>...][:q<N>]:<base>:<point>
// (a stack list is a node), which replays just that point with full
// violation output: exit 0 if it is clean, 1 if it violates, 2 if the
// spec is malformed. Unknown flags and malformed counts exit 2 too.
//
// Build: cmake --build build && ./build/examples/crash_consistency
// CI:    ./build/examples/crash_consistency --smoke --jobs 8
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "chk/crash_check.h"
#include "sim/host_pool.h"

using namespace bio;
using chk::Flavour;
using core::StackKind;

namespace {

constexpr StackKind kStacks[] = {StackKind::kExt4DR, StackKind::kBfsDR,
                                 StackKind::kBfsOD, StackKind::kOptFs,
                                 StackKind::kExt4OD};

/// One sweep of the table. A `control` row injects a bug its oracle must
/// catch; otherwise only EXT4-OD volumes are expected to violate.
struct Row {
  chk::SweepSpec spec;
  int points = 0;
  bool control = false;
};

std::vector<Row> smoke_table(int points) {
  std::vector<Row> rows;
  const std::pair<Flavour, std::uint32_t> sections[] = {
      {Flavour::kSingle, 1}, {Flavour::kConc, 1},  {Flavour::kRing, 1},
      {Flavour::kFault, 1},  {Flavour::kConc, 4},  {Flavour::kFault, 4}};
  for (const auto& [flavour, queues] : sections)
    for (StackKind kind : kStacks)
      rows.push_back(
          {{.flavour = flavour, .volumes = {kind}, .nr_queues = queues},
           points});
  rows.push_back({{.flavour = Flavour::kFault,
                   .volumes = {StackKind::kExt4DR},
                   .swallow_io_errors = true},
                  20,
                  true});
  rows.push_back({{.volumes = {StackKind::kBfsDR, StackKind::kExt4DR}},
                  points});
  return rows;
}

/// Every flavour's parallel driver once, sized so the race surface is
/// exercised without a full smoke's wall clock.
std::vector<Row> parallel_table() {
  constexpr int n = 24;
  return {
      {{.flavour = Flavour::kSingle, .volumes = {StackKind::kBfsDR}}, n},
      {{.flavour = Flavour::kConc, .volumes = {StackKind::kExt4DR}}, n},
      {{.flavour = Flavour::kRing, .volumes = {StackKind::kBfsOD}}, n},
      {{.flavour = Flavour::kFault, .volumes = {StackKind::kOptFs}}, n},
      {{.flavour = Flavour::kFault,
        .volumes = {StackKind::kExt4DR},
        .swallow_io_errors = true},
       20,
       true},
      {{.volumes = {StackKind::kBfsDR, StackKind::kExt4DR}}, n},
      {{.flavour = Flavour::kConc,
        .volumes = {StackKind::kBfsDR},
        .nr_queues = 4},
       n},
      {{.flavour = Flavour::kFault,
        .volumes = {StackKind::kBfsOD},
        .nr_queues = 4},
       n},
  };
}

const char* flavour_name(Flavour f) {
  switch (f) {
    case Flavour::kSingle: return "single";
    case Flavour::kFault: return "fault";
    case Flavour::kConc: return "conc";
    case Flavour::kRing: return "ring";
  }
  return "?";
}

/// Runs every row and prints one line per (row, volume); returns whether
/// every volume met its expectation.
bool run_table(const std::vector<Row>& rows, int jobs) {
  std::printf(
      "sweep             | volume     | points | failed | quiesced | acked pgs "
      "| order wrs | ns facts | syncs | chains | faults | degraded | "
      "verdict\n");
  bool ok = true;
  for (const Row& row : rows) {
    const chk::CrashSweepResult r =
        chk::run_sweep(row.spec, row.points, 1, jobs);
    const std::string sweep =
        std::string(flavour_name(row.spec.flavour)) + " q" +
        std::to_string(row.spec.nr_queues) +
        (row.control ? " +control" : "");
    for (std::size_t v = 0; v < r.volumes.size(); ++v) {
      const chk::CrashSweepResult& rv = r.volumes[v];
      const StackKind kind = row.spec.volumes[v];
      const bool expect_broken = row.control || kind == StackKind::kExt4OD;
      const bool met = expect_broken != rv.ok();
      ok = ok && met;
      const std::string volume =
          (r.volumes.size() > 1 ? "v" + std::to_string(v) + " " : "") +
          core::to_string(kind);
      std::printf(
          "%-17s | %-10s | %6d | %6d | %8d | %9llu | %9llu | %8llu | %5llu "
          "| %6llu | %6llu | %8d | %s\n",
          sweep.c_str(), volume.c_str(), rv.points, rv.failed_points,
          rv.quiesced_points, (unsigned long long)rv.acked_pages_checked,
          (unsigned long long)rv.order_writes_checked,
          (unsigned long long)rv.namespace_facts_checked,
          (unsigned long long)rv.syncs_recorded,
          (unsigned long long)rv.chain_facts_checked,
          (unsigned long long)rv.faults_injected, rv.degraded_points,
          met ? (expect_broken ? "BROKEN (expected)" : "ok")
              : (expect_broken ? "UNEXPECTEDLY CLEAN (checker too weak?)"
                               : "VIOLATED"));
    }
    for (const std::string& s : r.sample_violations)
      std::printf("        ! %s\n", s.c_str());
  }
  return ok;
}

/// Replays one sweep point from a `--repro` spec: 0 = clean, 1 = violated,
/// 2 = malformed.
int run_repro(const char* text) {
  const std::optional<chk::Repro> r = chk::parse_repro(text);
  if (!r) {
    std::fprintf(stderr,
                 "bad --repro spec '%s'\nusage: --repro "
                 "[conc:|ring:|fault:]<stack>[,<stack>...][:q<N>]:<base>:"
                 "<point>\n       (stack: EXT4-DR EXT4-OD BFS-DR BFS-OD "
                 "OptFS, a list replays a node;\n        base/point: "
                 "decimal, point <= 1000000; qN: block-layer queues in "
                 "[1, 64])\n",
                 text);
    return 2;
  }
  const std::uint64_t seed =
      r->base_seed + static_cast<std::uint64_t>(r->point);
  const sim::SimTime crash_at = chk::sweep_crash_at(r->base_seed, r->point);
  std::printf("replaying %s: seed=%llu crash=%lluns\n",
              chk::to_repro(*r).c_str(), (unsigned long long)seed,
              (unsigned long long)crash_at);
  bool ok = true;
  const std::vector<chk::CrashCheckResult> vols =
      chk::run_check(r->spec, seed, crash_at);
  for (std::size_t v = 0; v < vols.size(); ++v) {
    const chk::CrashCheckResult& c = vols[v];
    std::printf(
        "volume %zu (%s): quiesced=%d files=%u txns replayed=%u "
        "discarded=%u clean=%d wraps=%llu faults=%llu retries=%llu "
        "io-failures=%llu syncs-failed=%u degraded=%d\n",
        v, core::to_string(r->spec.volumes[v]), (int)c.quiesced,
        c.files_recovered, c.txns_replayed, c.txns_discarded,
        (int)c.recovery_clean, (unsigned long long)c.journal_wraps,
        (unsigned long long)c.faults_injected,
        (unsigned long long)c.io_retries, (unsigned long long)c.io_failures,
        c.syncs_failed, (int)c.volume_degraded);
    for (const std::string& s : c.violations) std::printf("  ! %s\n", s.c_str());
    if (c.ok()) std::printf("  (no violations — case is clean)\n");
    ok = ok && c.ok();
  }
  return ok ? 0 : 1;
}

/// Strict count: decimal digits only, in [1, max].
bool parse_count(const char* s, int max, int& out) {
  const char* end = s + std::strlen(s);
  unsigned long v = 0;
  const auto [p, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || p != end || v < 1 ||
      v > static_cast<unsigned long>(max))
    return false;
  out = static_cast<int>(v);
  return true;
}

int usage(const char* bad) {
  std::fprintf(stderr,
               "bad argument '%s'\nusage: crash_consistency [--smoke | "
               "--parallel-smoke | --points N] [--jobs N]\n"
               "       crash_consistency --repro <spec>\n"
               "       (N: decimal; points in [1, 1000000], jobs in [1, %d])\n",
               bad, sim::kMaxHostJobs);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int points = 200;
  int jobs = 0;  // 0 = BIO_SWEEP_JOBS env, else hardware concurrency
  bool parallel_smoke = false;
  const char* repro = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--smoke") == 0) {
      points = 120;
    } else if (std::strcmp(arg, "--parallel-smoke") == 0) {
      parallel_smoke = true;
    } else if (std::strcmp(arg, "--points") == 0) {
      if (val == nullptr || !parse_count(val, 1'000'000, points))
        return usage(val != nullptr ? val : arg);
      ++i;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      if (val == nullptr || !parse_count(val, sim::kMaxHostJobs, jobs))
        return usage(val != nullptr ? val : arg);
      ++i;
    } else if (std::strcmp(arg, "--repro") == 0 && val != nullptr) {
      repro = val;
      ++i;
    } else {
      return usage(arg);
    }
  }
  if (repro != nullptr) return run_repro(repro);

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Row> rows =
      parallel_smoke ? parallel_table() : smoke_table(points);
  std::printf("crash-recovery sweeps: %zu rows, jobs=%d\n\n", rows.size(),
              sim::resolve_host_jobs(jobs));
  const bool ok = run_table(rows, jobs);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("\ntotal sweep wall time: %.1fs (jobs=%d) -> %s\n", secs,
              sim::resolve_host_jobs(jobs), ok ? "ok" : "FAILED");
  if (ok && !parallel_smoke)
    std::printf(
        "\nThe four barrier/durability stacks keep their guarantees across "
        "every\npower cut — single-writer and concurrent, per volume, even "
        "several\nheterogeneous volumes to a node; the legacy nobarrier "
        "stack demonstrably\ndoes not, which is the problem the "
        "barrier-enabled IO stack exists to fix.\n");
  return ok ? 0 : 1;
}
