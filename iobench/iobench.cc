// iobench: the end-to-end + per-layer benchmark of the simulated IO stack.
//
// Drives one closed-loop workload through the public api::Vfs / api::File /
// api::Ring surface of one plain-SSD volume, timestamps every call in
// simulated time, checks the outcome (crash recovery of the quiesced stack,
// acknowledged sizes, unexpected errnos, determinism across reps) and prints
// one JSON object on stdout. run.py builds this program and turns that
// object into the benchmark's result line; see README.md for the metrics.
//
//   iobench --workload <name> --seed <n> --seconds <s> [--trace-dir <dir>]
//           [--smoke]
//   iobench --parity
//
// Without --trace-dir a run is one rep of the workload per two seconds of
// --seconds (host metrics are the reps' medians; simulated metrics must be
// identical across them). With --trace-dir it is the traced run: one
// untraced rep, one traced rep (which must reproduce every simulated
// metric), the two layer probes, and trace.json + layers.json written to
// the directory.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/vfs.h"
#include "blk/block_layer.h"
#include "core/stack.h"
#include "fs/recovery.h"
#include "generators.h"
#include "layers.h"
#include "recorder.h"
#include "wl/sqlite.h"
#include "wl/varmail.h"

namespace iobench {
namespace {

// ---- workloads ---------------------------------------------------------------

enum class Kind : std::uint8_t { kSqlite, kVarmail, kRandwrite };

struct Workload {
  const char* name;
  Kind kind;
  core::StackKind stack;
  std::uint32_t nr_queues;
  /// Work per rep: txns, writes, or iterations per varmail client. Fixed,
  /// so every simulated metric is independent of --seconds; sized so a rep
  /// takes ~1.5-2 s of host CPU on a 4-core x86 box, keeps peak RSS near
  /// 250 MiB, and gives every reported p99 >= 1000 samples.
  std::uint64_t units;
};

constexpr Workload kWorkloads[] = {
    {"sqlite-bfs", Kind::kSqlite, core::StackKind::kBfsDR, 1, 100'000},
    {"sqlite-ext4", Kind::kSqlite, core::StackKind::kExt4DR, 1, 100'000},
    {"varmail-q4", Kind::kVarmail, core::StackKind::kBfsDR, 4, 2'500},
    {"randwrite-ext4", Kind::kRandwrite, core::StackKind::kExt4DR, 1,
     400'000},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::unique_ptr<core::Stack> make_stack(core::StackKind kind,
                                        std::uint32_t nr_queues) {
  core::StackConfig cfg =
      core::StackConfig::make(kind, flash::DeviceProfile::plain_ssd());
  cfg.blk.nr_queues = nr_queues;
  return std::make_unique<core::Stack>(cfg);
}

constexpr std::size_t kMinTailSamples = 1000;

double us(sim::SimTime t) { return sim::to_micros(t); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

using Metrics = std::vector<std::pair<std::string, double>>;

/// Latency summary of one sample set; p99 only with enough samples.
struct Tail {
  double p50 = 0;
  double p99 = NAN;
  std::size_t n = 0;
};

Tail tail_of(const sim::LatencyRecorder& r) {
  Tail t;
  t.n = r.count();
  if (t.n == 0) return t;
  t.p50 = us(r.percentile(50));
  if (t.n >= kMinTailSamples) t.p99 = us(r.percentile(99));
  return t;
}

/// Per-class aggregates of the traced rep (layers.json's call table).
struct ClassRow {
  std::string name;
  std::uint64_t calls = 0;
  Tail sim;
  double host_p50_ns = NAN;
  layers::SpanCounters delta;
};

struct Rep {
  // Simulated: deterministic for a seed.
  double ops = 0;
  sim::SimTime sim_elapsed = 0;
  Tail op;
  Tail durable;
  Tail order;
  double user_pages = 0;
  layers::Counters delta;
  double avg_qd = 0;
  std::uint64_t attempted = 0;
  std::uint64_t unexpected = 0;
  std::uint64_t violations = 0;
  std::uint64_t nesting_errors = 0;
  bool recovery_clean = false;
  // Host.
  double host_ns = 0;
  double allocs = 0;
  double setup_s = 0;
  // Traced rep only.
  Metrics api_metrics;
  std::vector<ClassRow> classes;
  layers::Gauges gauges;
};

/// Every simulated quantity of a rep, for the bit-identity checks.
std::vector<double> fingerprint(const Rep& r) {
  std::vector<double> v = {r.ops,
                           static_cast<double>(r.sim_elapsed),
                           r.op.p50,
                           r.op.p99,
                           static_cast<double>(r.op.n),
                           r.durable.p50,
                           r.durable.p99,
                           static_cast<double>(r.durable.n),
                           r.order.p50,
                           r.order.p99,
                           static_cast<double>(r.order.n),
                           r.user_pages,
                           r.avg_qd,
                           static_cast<double>(r.attempted),
                           static_cast<double>(r.unexpected),
                           static_cast<double>(r.violations)};
  // The frame pool is per host thread, warm after the first rep: host
  // state, not simulated state.
  layers::Counters d = r.delta;
  d.frames_fresh = 0;
  layers::emit(d, layers::Gauges{}, {.ops = r.ops},
               [&v](const std::string&, double x) { v.push_back(x); });
  return v;
}

bool same(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] == b[i] || (std::isnan(a[i]) && std::isnan(b[i]))))
      return false;
  return true;
}

/// The api.* per-layer metrics, from the recorder of a rep.
Metrics api_metrics(const Recorder& rec, double ops) {
  Metrics m;
  for (std::size_t c = 0; c < kCalls; ++c) {
    const std::string p = std::string("api.") + kCallNames[c];
    const sim::LatencyRecorder& l = rec.latency(static_cast<Call>(c));
    m.emplace_back(p + ".calls_per_op",
                   layers::ratio(static_cast<double>(l.count()), ops));
    if (static_cast<Call>(c) == Call::kClose) continue;  // synchronous
    const Tail t = tail_of(l);
    m.emplace_back(p + ".sim_p50_us", t.p50);
    m.emplace_back(p + ".sim_p99_us", std::isnan(t.p99) ? 0.0 : t.p99);
  }
  const Tail order = tail_of(rec.order());
  m.emplace_back("api.order_point.sim_p50_us", order.p50);
  m.emplace_back("api.order_point.sim_p99_us",
                 std::isnan(order.p99) ? 0.0 : order.p99);
  m.emplace_back("api.ring.inflight_mean", rec.inflight_mean());
  return m;
}

std::vector<ClassRow> class_rows(const Recorder& rec) {
  std::vector<ClassRow> rows;
  for (std::size_t c = 0; c < kCalls; ++c) {
    const Recorder::ClassTotals& t = rec.totals(static_cast<Call>(c));
    ClassRow row;
    row.name = kCallNames[c];
    row.calls = t.calls;
    row.sim = tail_of(rec.latency(static_cast<Call>(c)));
    if (!t.host_ns.empty())
      row.host_p50_ns = static_cast<double>(t.host_ns.percentile(50));
    row.delta = t.delta;
    rows.push_back(row);
  }
  return rows;
}

/// Builds a fresh stack, runs the workload to quiescence, checks it.
Rep run_rep(const Workload& w, std::uint64_t units, std::uint64_t seed,
            bool traced, const std::string& trace_path) {
  const std::int64_t cpu_start = cpu_ns();
  std::unique_ptr<core::Stack> stack = make_stack(w.stack, w.nr_queues);
  stack->start();
  api::Vfs vfs(*stack);
  Recorder rec(*stack, traced);
  Durability dur;
  VarmailSpec mail;
  mail.iterations = static_cast<std::uint32_t>(units);
  Phase phase(*stack, w.kind == Kind::kVarmail ? mail.threads : 1, cpu_start);
  Env env{*stack, vfs, rec, dur, phase};
  std::function<std::string(std::uint32_t)> name_of;
  switch (w.kind) {
    case Kind::kSqlite:
      // iolint: detached-owner(run() below blocks until the client is done;
      // the objects behind env outlive the run in this scope)
      stack->sim().spawn("sqlite",
                         sqlite_client(env, {.txns = units}, sim::Rng(seed)));
      stack->sim().run();
      name_of = sqlite_name;
      break;
    case Kind::kRandwrite:
      // iolint: detached-owner(run() below blocks until the client is done;
      // the objects behind env outlive the run in this scope)
      stack->sim().spawn(
          "randwrite",
          randwrite_client(env, {.writes = units}, sim::Rng(seed)));
      stack->sim().run();
      name_of = randwrite_name;
      break;
    case Kind::kVarmail:
      run_varmail(env, mail, sim::Rng(seed));
      name_of = mail_name;
      break;
  }
  BIO_CHECK_MSG(phase.finished(), "workload stopped before its last op");

  Rep r;
  r.ops = static_cast<double>(rec.ops().count());
  r.sim_elapsed = phase.sim_elapsed();
  r.op = tail_of(rec.ops());
  r.durable = tail_of(rec.durable());
  r.order = tail_of(rec.order());
  r.user_pages = static_cast<double>(rec.user_pages());
  r.delta = layers::read(*stack) - phase.at_begin();
  r.avg_qd = layers::average_queue_depth(*stack);
  r.attempted = rec.attempted();
  r.unexpected = rec.unexpected_errors();
  r.nesting_errors = rec.nesting_errors();
  r.host_ns = phase.host_ns();
  r.allocs = phase.allocs();
  r.setup_s = phase.setup_s();

  // The stack is quiescent: what would a power cut now leave behind?
  fs::Filesystem& fs = stack->fs();
  const fs::RecoveryReport report =
      fs::Recovery(fs.journal(), fs.layout(), fs.config())
          .recover(stack->device().durable_state());
  r.recovery_clean = report.clean();
  r.violations = dur.violations(report, name_of);

  if (traced) {
    r.api_metrics = api_metrics(rec, r.ops);
    r.classes = class_rows(rec);
    r.gauges = rec.gauges();
    if (!rec.write_chrome_trace(trace_path, w.kind != Kind::kVarmail))
      throw std::runtime_error("cannot write " + trace_path);
  }
  return r;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- layer probes --------------------------------------------------------------

// Fixed traffic for the layer-isolated host-cost estimates: 4 KiB writes,
// 32 in flight, every 32nd a barrier, over a 32,768-page working set
// (strided so nothing merges in the block layer).
constexpr std::uint64_t kProbeCmds = 200'000;
constexpr std::uint32_t kProbeInflight = 32;
constexpr int kProbeRounds = 3;

flash::Lba probe_lba(std::uint64_t k) {
  return static_cast<flash::Lba>((k % 32'768) * 2);
}

core::VolumeConfig probe_config() {
  return core::VolumeConfig::make(core::StackKind::kBfsDR,
                                  flash::DeviceProfile::plain_ssd());
}

sim::Task probe_flash_writer(sim::Simulator& sim, flash::StorageDevice& dev,
                             std::uint64_t first) {
  sim::Event done(sim);
  blk::Block block;
  auto cmd = std::make_shared<flash::Command>();
  for (std::uint64_t k = first; k < kProbeCmds; k += kProbeInflight) {
    block = {probe_lba(k), k + 1};
    *cmd = flash::Command{};
    cmd->blocks = std::span<const blk::Block>(&block, 1);
    cmd->barrier = k % 32 == 31;
    cmd->priority =
        cmd->barrier ? flash::Priority::kOrdered : flash::Priority::kSimple;
    cmd->done = &done;
    while (!dev.try_submit(cmd)) co_await dev.queue_activity().wait();
    co_await done.wait();
    done.reset();
  }
}

/// Host ns per command of a bare plain-SSD in-order-recovery device.
double probe_flash() {
  sim::Simulator sim;
  flash::StorageDevice dev(sim, probe_config().device);
  dev.start();
  const std::int64_t t0 = cpu_ns();
  for (std::uint32_t w = 0; w < kProbeInflight; ++w)
    // iolint: detached-owner(run() below blocks until every writer is done;
    // sim and dev outlive the run in this scope)
    sim.spawn("probe-flash", probe_flash_writer(sim, dev, w));
  sim.run();
  BIO_CHECK(dev.stats().writes == kProbeCmds);
  return static_cast<double>(cpu_ns() - t0) / static_cast<double>(kProbeCmds);
}

sim::Task probe_blk_writer(blk::BlockLayer& blk, std::uint64_t first) {
  for (std::uint64_t k = first; k < kProbeCmds; k += kProbeInflight) {
    const blk::Block block{probe_lba(k), blk.next_version()};
    blk::RequestPtr r = blk.pool().make_write(
        std::span<const blk::Block>(&block, 1), /*ordered=*/true,
        /*barrier=*/k % 32 == 31);
    blk.submit(r);
    co_await r->completion.wait();
  }
}

/// Host ns per request of the same stream through the BFS-DR block layer
/// (q1) in front of the same device.
double probe_blk() {
  const core::VolumeConfig cfg = probe_config();
  sim::Simulator sim;
  flash::StorageDevice dev(sim, cfg.device);
  blk::BlockLayer blk(sim, dev, cfg.blk);
  dev.start();
  blk.start();
  const std::int64_t t0 = cpu_ns();
  for (std::uint32_t w = 0; w < kProbeInflight; ++w)
    // iolint: detached-owner(run() below blocks until every writer is done;
    // the block layer outlives the run in this scope)
    sim.spawn("probe-blk", probe_blk_writer(blk, w));
  sim.run();
  BIO_CHECK(blk.stats().submitted == kProbeCmds);
  return static_cast<double>(cpu_ns() - t0) / static_cast<double>(kProbeCmds);
}

// ---- JSON output -------------------------------------------------------------

void put_number(std::FILE* f, double v) {
  if (std::isfinite(v))
    std::fprintf(f, "%.17g", v);
  else
    std::fprintf(f, "null");
}

void put_metrics(std::FILE* f, const Metrics& m) {
  std::fprintf(f, "{");
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::fprintf(f, "%s\"%s\": ", i ? ", " : "", m[i].first.c_str());
    put_number(f, m[i].second);
  }
  std::fprintf(f, "}");
}

/// `setups` holds the setup times of every stack the run built.
Metrics e2e_metrics(const std::vector<Rep>& reps, std::vector<double> setups) {
  const Rep& r = reps.front();
  std::vector<double> ns_per_op, allocs_per_op;
  for (const Rep& x : reps) {
    ns_per_op.push_back(x.host_ns / x.ops);
    allocs_per_op.push_back(x.allocs / x.ops);
  }
  return {
      {"sim_ops_per_s", r.ops / sim::to_seconds(r.sim_elapsed)},
      {"sim_op_p50_us", r.op.p50},
      {"sim_op_p99_us", r.op.p99},
      {"sim_durable_p50_us", r.durable.p50},
      {"sim_durable_p99_us", r.durable.p99},
      {"sim_write_amp",
       layers::ratio(static_cast<double>(r.delta.nand_programs),
                     r.user_pages)},
      {"host_ns_per_op", median(ns_per_op)},
      {"host_allocs_per_op", median(allocs_per_op)},
      {"host_peak_rss_mb", peak_rss_mb()},
      {"setup_s", median(std::move(setups))},
  };
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_dir;
  bool smoke = false;
};

// A run measures one rep per kRepSeconds of --seconds (host metrics are
// the reps' medians, so a longer run is a steadier one) and builds
// kSetupOnly more stacks that stop after setup, for the setup_s median.
constexpr double kRepSeconds = 2;
constexpr int kSetupOnly = 6;

int run(const Options& o) {
  const Workload& w = *o.workload;
  const int reps =
      o.smoke ? 1 : std::max(1, static_cast<int>(o.seconds / kRepSeconds));
  const std::uint64_t units =
      o.smoke ? std::max<std::uint64_t>(1, w.units / 50) : w.units;
  const bool traced = !o.trace_dir.empty();

  std::vector<double> setups;
  if (!traced && !o.smoke)
    for (int i = 0; i < kSetupOnly; ++i)
      setups.push_back(run_rep(w, 0, o.seed, false, {}).setup_s);
  std::vector<Rep> runs;
  for (int i = 0; i < (traced ? 1 : reps); ++i) {
    runs.push_back(run_rep(w, units, o.seed, false, {}));
    setups.push_back(runs.back().setup_s);
  }
  bool identical = true;
  for (const Rep& x : runs)
    identical = identical && same(fingerprint(x), fingerprint(runs.front()));

  Metrics per_layer;
  std::vector<ClassRow> classes;
  double overhead_pct = 0, flash_ns = 0, blk_total_ns = 0, blk_ns = 0;
  bool trace_identical = true;
  std::uint64_t nesting = 0;
  if (traced) {
    const Rep t =
        run_rep(w, units, o.seed, true, o.trace_dir + "/trace.json");
    const Rep& base = runs.front();
    trace_identical = same(fingerprint(t), fingerprint(base)) &&
                      t.recovery_clean;
    nesting += t.nesting_errors;
    overhead_pct = (t.host_ns / base.host_ns - 1) * 100;
    // Alternating rounds, so drift in the host's speed hits both probes.
    std::vector<double> flash_rounds, blk_rounds;
    for (int i = 0; i < kProbeRounds; ++i) {
      flash_rounds.push_back(probe_flash());
      blk_rounds.push_back(probe_blk());
    }
    flash_ns = median(flash_rounds);
    blk_total_ns = median(blk_rounds);
    blk_ns = blk_total_ns - flash_ns;
    per_layer = t.api_metrics;
    layers::emit(t.delta, t.gauges,
                 {.ops = t.ops,
                  .user_pages = t.user_pages,
                  .avg_qd = t.avg_qd,
                  .host_ns = base.host_ns},
                 [&per_layer](const std::string& n, double v) {
                   per_layer.emplace_back(n, v);
                 });
    per_layer.emplace_back("host.flash_ns_per_cmd", flash_ns);
    per_layer.emplace_back("host.blk_ns_per_req", blk_ns);
    per_layer.emplace_back("host.trace_overhead_pct", overhead_pct);
    classes = t.classes;
  }

  const Rep& r = runs.front();
  bool ok_reps = true;
  for (const Rep& x : runs) {
    ok_reps = ok_reps && x.recovery_clean;
    nesting += x.nesting_errors;
  }
  const std::uint64_t failed = r.unexpected + r.violations;
  const bool correct = failed == 0 && ok_reps && nesting == 0 && identical &&
                       trace_identical && r.delta.io_failures == 0;
  const Metrics e2e = e2e_metrics(runs, setups);

  if (traced) {
    const std::string path = o.trace_dir + "/layers.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"per_layer\": ",
                 w.name, static_cast<unsigned long long>(o.seed));
    put_metrics(f, per_layer);
    std::fprintf(f, ",\n \"probes\": {\"probe.flash\": {\"cmds\": %llu, "
                    "\"host_ns_per_cmd\": ",
                 static_cast<unsigned long long>(kProbeCmds));
    put_number(f, flash_ns);
    std::fprintf(f, "}, \"probe.blk\": {\"requests\": %llu, "
                    "\"host_ns_per_req\": ",
                 static_cast<unsigned long long>(kProbeCmds));
    put_number(f, blk_total_ns);
    std::fprintf(f, ", \"host_ns_per_req_over_flash\": ");
    put_number(f, blk_ns);
    std::fprintf(f, "}},\n \"host.trace_overhead_pct\": ");
    put_number(f, overhead_pct);
    std::fprintf(f, ",\n \"calls\": [");
    for (std::size_t i = 0; i < classes.size(); ++i) {
      const ClassRow& c = classes[i];
      std::fprintf(f, "%s\n  {\"class\": \"%s\", \"calls\": %llu, "
                      "\"sim_p50_us\": ",
                   i ? "," : "", c.name.c_str(),
                   static_cast<unsigned long long>(c.calls));
      put_number(f, c.sim.p50);
      std::fprintf(f, ", \"sim_p99_us\": ");
      put_number(f, c.sim.p99);
      std::fprintf(f, ", \"host_p50_ns\": ");
      put_number(f, w.kind == Kind::kVarmail ? NAN : c.host_p50_ns);
      const double n = std::max<double>(1, static_cast<double>(c.calls));
      std::fprintf(f,
                   ", \"journal_commits_per_call\": %.6g, "
                   "\"blk_requests_per_call\": %.6g, \"flash_cmds_per_call\""
                   ": %.6g, \"flash_flushes_per_call\": %.6g, "
                   "\"sim_events_per_call\": %.6g}",
                   static_cast<double>(c.delta.commits) / n,
                   static_cast<double>(c.delta.requests) / n,
                   static_cast<double>(c.delta.cmds) / n,
                   static_cast<double>(c.delta.flushes) / n,
                   static_cast<double>(c.delta.events) / n);
    }
    std::fprintf(f, "\n ]}\n");
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }
  std::FILE* out = stdout;
  std::fprintf(out,
               "{\"workload\": \"%s\", \"seed\": %llu, \"units_per_rep\": "
               "%llu, \"reps\": %zu, \"traced\": %s, \"correct\": %s, "
               "\"attempted\": %llu, \"failed\": %llu, ",
               w.name, static_cast<unsigned long long>(o.seed),
               static_cast<unsigned long long>(units), runs.size(),
               traced ? "true" : "false", correct ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(failed));
  std::fprintf(out,
               "\"checks\": {\"recovery_clean\": %s, \"durability_violations\""
               ": %llu, \"unexpected_errnos\": %llu, \"nesting_errors\": "
               "%llu, \"reps_identical\": %s, \"trace_identical\": %s, "
               "\"blk_io_failures\": %llu}, ",
               ok_reps ? "true" : "false",
               static_cast<unsigned long long>(r.violations),
               static_cast<unsigned long long>(r.unexpected),
               static_cast<unsigned long long>(nesting),
               identical ? "true" : "false",
               trace_identical ? "true" : "false",
               static_cast<unsigned long long>(r.delta.io_failures));
  std::fprintf(out,
               "\"samples\": {\"op\": %zu, \"durable\": %zu, \"order\": %zu}, "
               "\"host_reps\": {\"host_ns_per_op\": [",
               r.op.n, r.durable.n, r.order.n);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(out, "%s", i ? ", " : "");
    put_number(out, runs[i].host_ns / runs[i].ops);
  }
  std::fprintf(out, "], \"setup_s\": [");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(out, "%s", i ? ", " : "");
    put_number(out, runs[i].setup_s);
  }
  std::fprintf(out, "]}, \"e2e\": ");
  put_metrics(out, e2e);
  std::fprintf(out, ", \"per_layer\": ");
  put_metrics(out, per_layer);
  std::fprintf(out, "}\n");

  return correct ? 0 : 1;
}

// ---- generator parity ----------------------------------------------------------

/// The benchmark's generators against the library workloads they copy, at
/// the library's published parameters: the results must be bit-identical.
int parity() {
  bool ok = true;
  {
    wl::SqliteParams p;
    p.transactions = 2000;
    auto lib_stack = make_stack(core::StackKind::kBfsDR, 1);
    const double lib = wl::run_sqlite(*lib_stack, p, sim::Rng(21)).tx_per_sec;

    const std::int64_t cpu_start = cpu_ns();
    auto stack = make_stack(core::StackKind::kBfsDR, 1);
    stack->start();
    api::Vfs vfs(*stack);
    Recorder rec(*stack, false);
    Durability dur;
    Phase phase(*stack, 1, cpu_start);
    Env env{*stack, vfs, rec, dur, phase};
    // iolint: detached-owner(run() below blocks until the client is done;
    // the objects behind env outlive the run in this scope)
    stack->sim().spawn("sqlite",
                       sqlite_client(env, {.txns = p.transactions},
                                     sim::Rng(21)));
    stack->sim().run();
    const double mine = static_cast<double>(p.transactions) /
                        sim::to_seconds(phase.sim_elapsed());
    std::printf("sqlite  (BFS-DR, 2000 txn, Rng(21)): wl::run_sqlite %.4f "
                "tx/s, iobench %.4f tx/s: %s\n",
                lib, mine, lib == mine ? "identical" : "DIFFERENT");
    ok = ok && lib == mine;
  }
  {
    wl::VarmailParams p;
    p.threads = 16;
    p.files = 400;
    p.iterations = 60;
    p.ring_qd = 8;
    auto lib_stack = make_stack(core::StackKind::kBfsDR, 1);
    const double lib = wl::run_varmail(*lib_stack, p, sim::Rng(47)).ops_per_sec;

    const std::int64_t cpu_start = cpu_ns();
    auto stack = make_stack(core::StackKind::kBfsDR, 1);
    stack->start();
    api::Vfs vfs(*stack);
    Recorder rec(*stack, false);
    Durability dur;
    VarmailSpec spec;
    spec.threads = p.threads;
    spec.files = p.files;
    spec.iterations = p.iterations;
    spec.ring_qd = p.ring_qd;
    Phase phase(*stack, spec.threads, cpu_start);
    Env env{*stack, vfs, rec, dur, phase};
    const std::uint64_t flowops = run_varmail(env, spec, sim::Rng(47));
    // wl::run_varmail's clock stops when the simulation drains.
    const double mine =
        static_cast<double>(flowops) /
        sim::to_seconds(stack->sim().now() - phase.sim_begin());
    std::printf("varmail (BFS-DR q1, 16 threads, 400 files, 60 iter, QD 8, "
                "Rng(47)): wl::run_varmail %.4f flowops/s, iobench %.4f "
                "flowops/s: %s\n",
                lib, mine, lib == mine ? "identical" : "DIFFERENT");
    ok = ok && lib == mine;
  }
  return ok ? 0 : 1;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (*s == '\0') return false;
  std::uint64_t v = 0;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    if (v > (~std::uint64_t{0} - 9) / 10) return false;
    v = v * 10 + static_cast<std::uint64_t>(*p - '0');
  }
  out = v;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: iobench --workload <name> --seed <n> --seconds <s> "
               "[--trace-dir <dir>] [--smoke]\n"
               "       iobench --parity\n");
  return 2;
}

}  // namespace
}  // namespace iobench

int main(int argc, char** argv) {
  using namespace iobench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--parity") {
      try {
        return parity();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "iobench: %s\n", e.what());
        return 1;
      }
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = find_workload(argv[++i]);
      if (o.workload == nullptr) return usage();
    } else if (a == "--seed" && has_value) {
      if (!parse_u64(argv[++i], o.seed)) return usage();
    } else if (a == "--seconds" && has_value) {
      std::uint64_t s = 0;
      if (!parse_u64(argv[++i], s) || s == 0 || s > 3600) return usage();
      o.seconds = static_cast<double>(s);
    } else if (a == "--trace-dir" && has_value) {
      o.trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (o.workload == nullptr) return usage();
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iobench: %s\n", e.what());
    return 1;
  }
}
