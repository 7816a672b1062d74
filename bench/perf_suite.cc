// Self-timing perf harness: wall-clock cost of the *simulator itself* (not
// simulated latencies) across the five StackKinds plus request-churn,
// page-cache-churn, concurrent-writer, ring, multi-queue and sharded
// scenarios, each at one fixed run length. Writes BENCH_perf.json so every
// PR leaves a perf trajectory behind.
//
// stdout carries only simulated, deterministic fields: per scenario ops,
// sim_ios, requests, events, sim ops/s and per-volume ops/s, then two shape
// rules in sim ops/s — ring-qd8 and ring-qd32 beat ring-serial (group-commit
// batching), and mq-scaling-q4 exceeds 1.3x mq-scaling-q1 (channel-parallel
// dispatch under the epoch fence). A [FAIL] rule makes the run exit 1. ctest
// diffs stdout against bench/expected/perf_suite.txt.
//
// stderr and the JSON carry the host metrics (tools/bench_delta.py guards
// ns/op):
//   * ns/io, ns/op       — wall nanoseconds per simulated device IO / op
//   * events/sec         — simulator event-loop dispatch rate
//   * requests/sec       — block-layer request throughput (wall clock)
//   * allocs/req (pool)  — heap allocations per request, from RequestPool
//                          stats (slab misses + control-block allocs +
//                          BlockList spills)
//   * allocs/op (global) — every operator-new call in the process, frames
//                          and all, from the override below
//
// Usage: perf_suite [--out <path>]
//   --out defaults to BENCH_perf.json in the current directory (CI runs
//   from the repo root).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "api/vfs.h"
#include "core/stack.h"
#include "sim/frame_pool.h"
#include "wl/trace_writers.h"
#include "wl/fxmark.h"
#include "wl/varmail.h"

// ---- global allocation counter ---------------------------------------------

// Relaxed atomic: exact for counting, and a replaced operator new stays
// safe whichever thread allocates.
static std::atomic<std::uint64_t> g_new_calls{0};

// Under TSan the replaced malloc-backed operator new/delete would sit
// outside the sanitizer's allocator interception (and GCC rejects the
// pair as -Wmismatched-new-delete); nobody reads the allocs/op column
// from a sanitizer build, so keep the default allocator there and let
// the counter stay at zero.
#if defined(__SANITIZE_THREAD__)
#define BIO_PERF_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BIO_PERF_TSAN 1
#endif
#endif

#if !defined(BIO_PERF_TSAN)
void* operator new(std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // !BIO_PERF_TSAN

using namespace bio;
using Clock = std::chrono::steady_clock;

namespace {

enum class Mode { kFullSync, kFdatabarrier, kBuffered };

// Run lengths: one per scenario, long enough that fixed start-up costs
// (mount, journal replay, first-touch allocations) amortize out of ns/io.
constexpr std::uint64_t kSyncOps = 3000;
constexpr std::uint64_t kChurnOps = 20000;
constexpr std::uint64_t kPageOps = 40000;
constexpr std::uint32_t kDwslWrites = 200;

struct ScenarioResult {
  std::string name;
  std::uint64_t ops = 0;
  std::uint64_t sim_ios = 0;
  std::uint64_t requests = 0;
  std::uint64_t events = 0;
  double wall_ns = 0.0;
  std::uint64_t global_allocs = 0;
  blk::RequestPool::Stats pool;
  /// Sharded (multi-volume) scenarios only: per-volume *simulated*
  /// throughput — the volume-scaling signal, next to the wall-clock cost.
  std::uint32_t volumes = 0;
  double sim_ops_per_sec = 0.0;
  std::vector<double> volume_ops_per_sec;

  double ns_per_io() const { return sim_ios ? wall_ns / double(sim_ios) : 0; }
  double ns_per_op() const { return ops ? wall_ns / double(ops) : 0; }
  double events_per_sec() const {
    return wall_ns > 0 ? double(events) * 1e9 / wall_ns : 0;
  }
  double requests_per_sec() const {
    return wall_ns > 0 ? double(requests) * 1e9 / wall_ns : 0;
  }
  double global_allocs_per_op() const {
    return ops ? double(global_allocs) / double(ops) : 0;
  }
};

std::uint64_t dev_ios(core::Stack& s) {
  const auto& d = s.device().stats();
  return d.writes + d.reads + d.flushes;
}

ScenarioResult run_scenario(const char* name, core::StackKind kind, Mode mode,
                            std::uint64_t ops, std::uint32_t nfiles,
                            std::uint32_t pages_per_file) {
  auto stack = std::make_unique<core::Stack>(
      core::StackConfig::make(kind, flash::DeviceProfile::plain_ssd()));
  stack->start();
  api::Vfs vfs(*stack);
  std::vector<api::File> files(nfiles);

  // Setup phase (not measured): create and pre-allocate the working set so
  // the measured writes are overwrites.
  auto setup = [&]() -> sim::Task {
    for (std::uint32_t i = 0; i < nfiles; ++i) {
      files[i] = api::must(co_await vfs.open(
          "f" + std::to_string(i),
          {.create = true, .extent_blocks = pages_per_file}));
      for (std::uint32_t off = 0; off < pages_per_file;
           off += blk::kMaxMergedBlocks) {
        const std::uint32_t n = std::min<std::uint32_t>(
            blk::kMaxMergedBlocks, pages_per_file - off);
        api::must(co_await files[i].pwrite(off, n));
        api::must(co_await files[i].fsync());
      }
    }
  };
  stack->sim().spawn("setup", setup());
  stack->sim().run();

  auto body = [&]() -> sim::Task {
    for (std::uint64_t i = 0; i < ops; ++i) {
      api::File& f = files[i % nfiles];
      const std::uint32_t page =
          static_cast<std::uint32_t>((i * 7) % pages_per_file);
      api::must(co_await f.pwrite(page, 1));
      switch (mode) {
        case Mode::kFullSync:
          api::must(co_await f.sync_file());
          break;
        case Mode::kFdatabarrier:
          api::must(co_await f.fdatabarrier());
          break;
        case Mode::kBuffered:
          break;
      }
    }
  };

  ScenarioResult r;
  r.name = name;
  r.ops = ops;
  const std::uint64_t ios0 = dev_ios(*stack);
  const std::uint64_t sub0 = stack->blk().stats().submitted;
  const std::uint64_t ev0 = stack->sim().events_dispatched();
  const blk::RequestPool::Stats pool0 = stack->blk().pool().stats();
  const std::uint64_t alloc0 = g_new_calls;
  const auto t0 = Clock::now();
  stack->sim().spawn("app", body());
  stack->sim().run();
  r.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  r.sim_ios = dev_ios(*stack) - ios0;
  r.requests = stack->blk().stats().submitted - sub0;
  r.events = stack->sim().events_dispatched() - ev0;
  r.global_allocs = g_new_calls - alloc0;
  r.pool = stack->blk().pool().stats();
  r.pool -= pool0;
  return r;
}

/// Sharded DWSL over a node of `nvolumes` BFS-DR volumes. Callers pass a
/// core count that *scales with the volume count* (weak scaling: enough
/// writers per volume to saturate one journal), so volume_ops_per_sec
/// isolates per-journal commit saturation while total throughput tracks
/// the volume count.
ScenarioResult run_sharded_scenario(const char* name, std::uint32_t nvolumes,
                                    std::uint32_t cores,
                                    std::uint32_t writes_per_thread) {
  const std::vector<core::StackConfig> bases(
      nvolumes, core::StackConfig::make(core::StackKind::kBfsDR,
                                        flash::DeviceProfile::plain_ssd()));
  auto node = std::make_unique<core::Stack>(core::NodeConfig::from(bases));

  ScenarioResult r;
  r.name = name;
  r.volumes = nvolumes;
  // Baselines snapshot at the hook — after the workload's setup phase —
  // so the sharded rows measure only the striped-writer phase, exactly as
  // run_scenario excludes its own setup.
  struct IoTotals {
    std::uint64_t sim_ios = 0;
    std::uint64_t requests = 0;
    blk::RequestPool::Stats pool;
  };
  auto node_io_totals = [&node, nvolumes] {
    IoTotals t;
    for (std::uint32_t v = 0; v < nvolumes; ++v) {
      core::Volume& vol = node->volume(v);
      const auto& d = vol.device().stats();
      t.sim_ios += d.writes + d.reads + d.flushes;
      t.requests += vol.blk().stats().submitted;
      t.pool += vol.blk().pool().stats();
    }
    return t;
  };
  IoTotals base;
  std::uint64_t ev0 = 0;
  std::uint64_t alloc0 = 0;
  Clock::time_point t0{};
  const wl::ShardedFxmarkResult res = wl::run_fxmark_dwsl_sharded(
      *node, {.cores = cores, .writes_per_thread = writes_per_thread}, [&] {
        base = node_io_totals();
        ev0 = node->sim().events_dispatched();
        alloc0 = g_new_calls;
        t0 = Clock::now();
      });
  r.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  r.ops = res.ops_done;
  r.events = node->sim().events_dispatched() - ev0;
  r.global_allocs = g_new_calls - alloc0;
  const IoTotals total = node_io_totals();
  r.sim_ios = total.sim_ios - base.sim_ios;
  r.requests = total.requests - base.requests;
  r.pool = total.pool;
  r.pool -= base.pool;
  if (res.elapsed > 0)
    r.sim_ops_per_sec = res.ops_per_sec;
  r.volume_ops_per_sec = res.volume_ops_per_sec;
  return r;
}

/// Shared-inode multi-writer workload (wl::run_concurrent_writers) on one
/// BFS-DR volume: N coroutine writers over independent fds interleaving
/// writes with the sync matrix plus namespace and fd churn — the host-side
/// cost of the path the concurrent crash sweep exercises.
ScenarioResult run_concurrent_scenario(const char* name,
                                       std::uint32_t writers,
                                       std::uint32_t ops_per_writer) {
  auto stack = std::make_unique<core::Stack>(
      core::StackConfig::make(core::StackKind::kBfsDR,
                              flash::DeviceProfile::plain_ssd()));
  ScenarioResult r;
  r.name = name;
  const std::uint64_t ev0 = stack->sim().events_dispatched();
  const std::uint64_t alloc0 = g_new_calls;
  const auto t0 = Clock::now();
  wl::ConcurrentWritersParams p;
  p.writers = writers;
  p.ops_per_writer = ops_per_writer;
  const wl::ConcurrentWritersResult res =
      wl::run_concurrent_writers(*stack, p);
  r.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  r.ops = res.ops_done + res.syncs_done;
  r.sim_ios = dev_ios(*stack);
  r.requests = stack->blk().stats().submitted;
  r.events = stack->sim().events_dispatched() - ev0;
  r.global_allocs = g_new_calls - alloc0;
  r.pool = stack->blk().pool().stats();
  return r;
}

/// Ring QD sweep: the varmail flow on one BFS-DR volume, driven through
/// api::Ring at a fixed per-thread queue depth (ring_qd = 0 is the direct
/// serialized flavour — the serial-await baseline). Next to the wall-clock
/// columns this records *simulated* flowops/s (sim_ops_per_sec): the
/// batching signal — linked chains from independent mails coalescing into
/// shared journal commits — that QD >= 8 must win over serial awaits.
ScenarioResult run_ring_scenario(const char* name, std::uint32_t ring_qd) {
  auto stack = std::make_unique<core::Stack>(core::StackConfig::make(
      core::StackKind::kBfsDR, flash::DeviceProfile::plain_ssd()));
  wl::VarmailParams p;
  p.threads = 16;
  p.files = 400;
  p.iterations = 60;
  p.ring_qd = ring_qd;

  ScenarioResult r;
  r.name = name;
  const std::uint64_t ev0 = stack->sim().events_dispatched();
  const std::uint64_t alloc0 = g_new_calls;
  const auto t0 = Clock::now();
  const wl::VarmailResult res = wl::run_varmail(*stack, p, sim::Rng(47));
  r.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  r.ops = res.ops_done;
  r.sim_ops_per_sec = res.ops_per_sec;
  r.sim_ios = dev_ios(*stack);
  r.requests = stack->blk().stats().submitted;
  r.events = stack->sim().events_dispatched() - ev0;
  r.global_allocs = g_new_calls - alloc0;
  r.pool = stack->blk().pool().stats();
  return r;
}

/// Multi-queue block-layer scaling: eight writer coroutines drive strided
/// ordered writes (a barrier every 32) straight through blk::BlockLayer at
/// `nr_queues` software queues over the plain-SSD's eight channels, with
/// barrier support on so the block layer runs the epoch fence and ORDERED
/// dispatch.
/// sim_ops_per_sec is the scaling signal — at q1 every write funnels
/// through one port's host bus, at q4 four channel pipelines transfer in
/// parallel — and it is measured to the *last write acknowledgement* (not
/// the background NAND drain, which has the same channel parallelism at
/// every queue count and would wash the signal out). main()'s shape rule
/// holds q4 above 1.3x q1.
ScenarioResult run_mq_scenario(const char* name, std::uint32_t nr_queues) {
  sim::Simulator sim;
  flash::StorageDevice dev(sim, flash::DeviceProfile::plain_ssd().with_barrier(
                                    flash::BarrierMode::kInOrderRecovery));
  blk::BlockLayerConfig bcfg;
  bcfg.nr_queues = nr_queues;
  blk::BlockLayer blk(sim, dev, bcfg);
  dev.start();
  blk.start();

  const std::uint32_t writers = 8;
  const std::uint32_t ops = 480;
  const std::uint64_t total = std::uint64_t{writers} * ops;
  std::uint64_t done = 0;
  sim::SimTime all_acked = 0;
  auto writer = [&](std::uint32_t w) -> sim::Task {
    for (std::uint32_t i = 0; i < ops; ++i) {
      std::vector<blk::Block> b;
      // Strided LBAs: nothing merges, every op is one device command.
      b.emplace_back(static_cast<flash::Lba>(w * 65536 + i * 2),
                     blk.next_version());
      co_await blk.write_and_wait(std::move(b), /*ordered=*/true,
                                  /*barrier=*/(i % 32) == 31);
      if (++done == total) all_acked = sim.now();
    }
  };

  ScenarioResult r;
  r.name = name;
  const std::uint64_t ev0 = sim.events_dispatched();
  const std::uint64_t alloc0 = g_new_calls;
  const auto t0 = Clock::now();
  for (std::uint32_t w = 0; w < writers; ++w)
    sim.spawn("mq-writer", writer(w));
  sim.run();
  r.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  r.ops = done;
  if (all_acked > 0)
    r.sim_ops_per_sec =
        static_cast<double>(done) / sim::to_seconds(all_acked);
  r.sim_ios = dev.stats().writes + dev.stats().reads + dev.stats().flushes;
  r.requests = blk.stats().submitted;
  r.events = sim.events_dispatched() - ev0;
  r.global_allocs = g_new_calls - alloc0;
  r.pool = blk.pool().stats();
  return r;
}

/// Simulated fields only: deterministic, so this is the golden.
void print_sim_table(const std::vector<ScenarioResult>& results) {
  std::printf("%-18s %8s %9s %9s %9s %10s\n", "scenario", "ops", "sim_ios",
              "requests", "events", "sim ops/s");
  for (const auto& r : results) {
    std::printf("%-18s %8llu %9llu %9llu %9llu", r.name.c_str(),
                (unsigned long long)r.ops, (unsigned long long)r.sim_ios,
                (unsigned long long)r.requests, (unsigned long long)r.events);
    if (r.sim_ops_per_sec > 0)
      std::printf(" %10.0f", r.sim_ops_per_sec);
    else
      std::printf(" %10s", "-");
    if (r.volumes > 0) {
      std::printf("  per-volume:");
      for (double v : r.volume_ops_per_sec) std::printf(" %.0f", v);
    }
    std::printf("\n");
  }
}

/// Host (wall-clock and allocation) fields: they vary run to run.
void print_host_table(const std::vector<ScenarioResult>& results) {
  std::fprintf(stderr, "%-18s %9s %10s %11s %11s %11s %10s\n", "scenario",
               "ns/io", "ns/op", "events/s", "reqs/s", "allocs/req",
               "allocs/op");
  for (const auto& r : results)
    std::fprintf(stderr, "%-18s %9.1f %10.1f %11.0f %11.0f %11.4f %10.2f\n",
                 r.name.c_str(), r.ns_per_io(), r.ns_per_op(),
                 r.events_per_sec(), r.requests_per_sec(),
                 r.pool.allocs_per_request(), r.global_allocs_per_op());
}

/// Prints one shape rule as a [PASS]/[FAIL] line and returns its verdict.
bool shape(bool ok, const char* rule) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", rule);
  return ok;
}

bool write_json(const char* path, const std::vector<ScenarioResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_suite: cannot open %s for writing\n", path);
    return false;
  }
  const sim::FramePoolStats& fp = sim::frame_pool_stats();
  std::fprintf(f, "{\n  \"schema\": \"bio-perf/1\",\n");
  std::fprintf(f,
               "  \"frame_pool\": {\"allocs\": %llu, \"reuses\": %llu, "
               "\"fresh\": %llu},\n",
               (unsigned long long)fp.allocs, (unsigned long long)fp.reuses,
               (unsigned long long)fp.fresh);
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"ops\": %llu,\n", (unsigned long long)r.ops);
    std::fprintf(f, "      \"sim_ios\": %llu,\n",
                 (unsigned long long)r.sim_ios);
    std::fprintf(f, "      \"requests\": %llu,\n",
                 (unsigned long long)r.requests);
    std::fprintf(f, "      \"events\": %llu,\n", (unsigned long long)r.events);
    std::fprintf(f, "      \"wall_ns\": %.0f,\n", r.wall_ns);
    std::fprintf(f, "      \"ns_per_io\": %.2f,\n", r.ns_per_io());
    std::fprintf(f, "      \"ns_per_op\": %.2f,\n", r.ns_per_op());
    std::fprintf(f, "      \"events_per_sec\": %.0f,\n", r.events_per_sec());
    std::fprintf(f, "      \"requests_per_sec\": %.0f,\n",
                 r.requests_per_sec());
    std::fprintf(f, "      \"global_allocs\": %llu,\n",
                 (unsigned long long)r.global_allocs);
    std::fprintf(f, "      \"global_allocs_per_op\": %.3f,\n",
                 r.global_allocs_per_op());
    if (r.volumes > 0) {
      std::fprintf(f, "      \"volumes\": %u,\n", r.volumes);
      std::fprintf(f, "      \"volume_ops_per_sec\": [");
      for (std::size_t v = 0; v < r.volume_ops_per_sec.size(); ++v)
        std::fprintf(f, "%s%.0f", v ? ", " : "", r.volume_ops_per_sec[v]);
      std::fprintf(f, "],\n");
    }
    if (r.sim_ops_per_sec > 0)
      std::fprintf(f, "      \"sim_ops_per_sec\": %.0f,\n",
                   r.sim_ops_per_sec);
    std::fprintf(
        f,
        "      \"pool\": {\"acquired\": %llu, \"recycled\": %llu, "
        "\"fresh_requests\": %llu, \"ctrl_allocs\": %llu, "
        "\"block_heap_allocs\": %llu, \"allocs_per_request\": %.4f}\n",
        (unsigned long long)r.pool.acquired,
        (unsigned long long)r.pool.recycled,
        (unsigned long long)r.pool.fresh_requests,
        (unsigned long long)r.pool.ctrl_allocs,
        (unsigned long long)r.pool.block_heap_allocs,
        r.pool.allocs_per_request());
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: perf_suite [--out <path>]\n");
      return 2;
    }
  }

  using K = core::StackKind;
  const std::vector<ScenarioResult> results = {
      run_scenario("sync-EXT4-DR", K::kExt4DR, Mode::kFullSync, kSyncOps, 1,
                   1024),
      run_scenario("sync-EXT4-OD", K::kExt4OD, Mode::kFullSync, kSyncOps, 1,
                   1024),
      run_scenario("sync-BFS-DR", K::kBfsDR, Mode::kFullSync, kSyncOps, 1,
                   1024),
      run_scenario("sync-BFS-OD", K::kBfsOD, Mode::kFullSync, kSyncOps, 1,
                   1024),
      run_scenario("sync-OptFS", K::kOptFs, Mode::kFullSync, kSyncOps, 1,
                   1024),
      // Request churn: ordering-only syncs never block, so this maximises
      // request creation per wall second — the pool's worst case.
      run_scenario("request-churn", K::kBfsOD, Mode::kFdatabarrier,
                   kChurnOps, 1, 1024),
      // Page-cache churn: buffered writes across many files; pdflush does
      // the writeback. Exercises the per-inode dirty indexes.
      run_scenario("pagecache-churn", K::kExt4DR, Mode::kBuffered, kPageOps,
                   32, 256),
      // Concurrent shared-inode writers: the multi-writer path the
      // concurrent crash sweep exercises (independent fds, sync matrix,
      // namespace + fd churn), measured for host-side cost on one BFS-DR
      // volume.
      run_concurrent_scenario("concurrent-writers", 16, 400),
      // Ring QD sweep: serial awaits vs api::Ring at increasing queue depth
      // on BFS-DR. sim_ops_per_sec is the batching signal — QD >= 8 must
      // beat the serial baseline (the first shape rule below).
      run_ring_scenario("ring-serial", 0),
      run_ring_scenario("ring-qd1", 1),
      run_ring_scenario("ring-qd8", 8),
      run_ring_scenario("ring-qd32", 32),
      // Multi-queue block-layer scaling: q1 is the classic single-queue
      // layer, q4 spreads four software queues over four flash channels.
      // The second shape rule holds the sim throughput ratio q4/q1 above
      // 1.3x.
      run_mq_scenario("mq-scaling-q1", 1),
      run_mq_scenario("mq-scaling-q2", 2),
      run_mq_scenario("mq-scaling-q4", 4),
      // Sharded DWSL weak scaling: 64 writer threads *per volume* (enough
      // to saturate one journal's commit pipeline, ~12k commits/s on this
      // profile) over 1/2/4 BFS-DR volumes of one node. With independent
      // journals, volume_ops_per_sec holds at saturation while
      // sim_ops_per_sec scales with the volume count.
      run_sharded_scenario("sharded-fxmark-v1", 1, 64, kDwslWrites),
      run_sharded_scenario("sharded-fxmark-v2", 2, 128, kDwslWrites),
      run_sharded_scenario("sharded-fxmark-v4", 4, 256, kDwslWrites),
  };
  auto sim_ops = [&results](const char* name) {
    for (const ScenarioResult& r : results)
      if (r.name == name) return r.sim_ops_per_sec;
    return 0.0;
  };

  std::printf("=== perf_suite — simulated fields per scenario ===\n");
  print_sim_table(results);
  const double serial = sim_ops("ring-serial");
  const bool ring_ok =
      shape(sim_ops("ring-qd8") > serial && sim_ops("ring-qd32") > serial,
            "ring-qd8 and ring-qd32 beat ring-serial in sim ops/s");
  const bool mq_ok =
      shape(sim_ops("mq-scaling-q4") > 1.3 * sim_ops("mq-scaling-q1"),
            "mq-scaling-q4 exceeds 1.3x mq-scaling-q1 in sim ops/s");

  print_host_table(results);
  if (!write_json(out, results)) return 1;
  std::fprintf(stderr, "wrote %s\n", out);
  return ring_ok && mq_ok ? 0 : 1;
}
