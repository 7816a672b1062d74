// What iobench records while a workload runs: per-call and per-op simulated
// latencies, the durability ledger the post-run recovery check reads, the
// measurement window, and — in the traced run — spans with host timestamps
// and lower-layer counter deltas, exported as Chrome trace-event JSON.
//
// Spans are recorded from the benchmark's own files, around each call into
// the api/ layer (and around each ring sqe, via the Ring hooks); nothing
// inside the stack is instrumented.
#pragma once

#include <time.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/sync_policy.h"
#include "core/stack.h"
#include "layers.h"
#include "sim/check.h"
#include "sim/stats.h"

namespace iobench {

using namespace bio;

/// Global operator-new calls so far (alloc_count.cc).
std::uint64_t new_calls() noexcept;

inline std::int64_t cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The api call classes the benchmark times.
enum class Call : std::uint8_t {
  kPwrite,
  kPread,
  kOpen,
  kClose,
  kUnlink,
  kFsync,
  kFdatasync,
  kFdatabarrier,
  kRingChain,
};
inline constexpr std::size_t kCalls = 9;
inline constexpr std::array<const char*, kCalls> kCallNames = {
    "pwrite", "pread",     "open",         "close",     "unlink",
    "fsync",  "fdatasync", "fdatabarrier", "ring_chain"};

inline Call call_of(api::Syscall s) {
  switch (s) {
    case api::Syscall::kFsync: return Call::kFsync;
    case api::Syscall::kFdatasync: return Call::kFdatasync;
    case api::Syscall::kFdatabarrier: return Call::kFdatabarrier;
    default: break;
  }
  BIO_CHECK_MSG(false, "sync syscall outside the benchmark's stacks");
  return Call::kFsync;
}

/// Why a sync was called: the e2e metrics split order points from
/// durability points (fsync/fdatasync, ring full-sync sqe).
enum class Intent : std::uint8_t { kNone, kOrder, kDurable };

inline constexpr std::uint32_t kNoParent = 0;

/// Acknowledged-size ledger: a file whose durability point returned OK must
/// recover with at least the pages written before that point was issued.
/// Files are small dense ids chosen by the generators.
class Durability {
 public:
  void wrote(std::uint32_t file, std::uint32_t end_page) {
    grow(file);
    written_[file] = std::max(written_[file], end_page);
  }
  std::uint32_t written(std::uint32_t file) {
    grow(file);
    return written_[file];
  }
  void acked(std::uint32_t file, std::uint32_t pages) {
    grow(file);
    acked_[file] = std::max(acked_[file], pages);
  }
  /// The name is gone: nothing about it is checked any more.
  void removed(std::uint32_t file) {
    grow(file);
    removed_[file] = true;
  }
  /// Acked files that recovery lost or shortened.
  template <typename NameOf>
  std::uint64_t violations(const fs::RecoveryReport& r, NameOf&& name_of) const {
    std::uint64_t bad = 0;
    for (std::uint32_t f = 0; f < acked_.size(); ++f) {
      if (removed_[f] || acked_[f] == 0) continue;
      const std::string name = name_of(f);
      bool ok = false;
      for (const fs::RecoveryReport::RecoveredFile& rf : r.files)
        if (rf.name == name) ok = rf.size_blocks >= acked_[f];
      if (!ok) ++bad;
    }
    return bad;
  }

 private:
  void grow(std::uint32_t file) {
    if (file >= written_.size()) {
      written_.resize(file + 1, 0);
      acked_.resize(file + 1, 0);
      removed_.resize(file + 1, false);
    }
  }
  std::vector<std::uint32_t> written_;
  std::vector<std::uint32_t> acked_;
  std::vector<bool> removed_;
};

/// One measured phase: from the end of setup to the last client's last op.
/// `cpu_start` is the host CPU time taken before the stack was built, so
/// setup_s() covers stack build, start and file-set population.
class Phase {
 public:
  Phase(core::Stack& stack, std::uint32_t clients, std::int64_t cpu_start)
      : stack_(stack), clients_(clients), cpu_built_(cpu_start) {}

  /// Setup is over: the measured window opens here.
  void begin() {
    layers::begin_window(stack_);
    at_begin_ = layers::read(stack_);
    sim_begin_ = stack_.sim().now();
    allocs_begin_ = new_calls();
    cpu_begin_ = cpu_ns();
  }
  void client_done() {
    BIO_CHECK(clients_ > 0);
    if (--clients_ > 0) return;
    cpu_end_ = cpu_ns();
    allocs_end_ = new_calls();
    sim_end_ = stack_.sim().now();
  }

  bool finished() const noexcept { return clients_ == 0; }
  const layers::Counters& at_begin() const noexcept { return at_begin_; }
  sim::SimTime sim_begin() const noexcept { return sim_begin_; }
  sim::SimTime sim_elapsed() const noexcept { return sim_end_ - sim_begin_; }
  double setup_s() const noexcept {
    return static_cast<double>(cpu_begin_ - cpu_built_) / 1e9;
  }
  double host_ns() const noexcept {
    return static_cast<double>(cpu_end_ - cpu_begin_);
  }
  double allocs() const noexcept {
    return static_cast<double>(allocs_end_ - allocs_begin_);
  }

 private:
  core::Stack& stack_;
  std::uint32_t clients_;
  std::int64_t cpu_built_;
  std::int64_t cpu_begin_ = 0;
  std::int64_t cpu_end_ = 0;
  std::uint64_t allocs_begin_ = 0;
  std::uint64_t allocs_end_ = 0;
  sim::SimTime sim_begin_ = 0;
  sim::SimTime sim_end_ = 0;
  layers::Counters at_begin_;
};

/// Latency samples and, when traced, spans of the measured phase.
class Recorder {
 public:
  /// Spans written to the Chrome trace (all spans feed the aggregates).
  static constexpr std::size_t kMaxTraceSpans = 20'000;

  struct Token {
    Call cls = Call::kPwrite;
    /// Span id (trace only) and the parent op's handle and span id.
    std::uint32_t id = 0;
    std::uint32_t parent = kNoParent;
    std::uint32_t parent_id = 0;
    std::uint32_t track = 0;
    sim::SimTime sim_start = 0;
    std::int64_t host_start = 0;
    layers::SpanCounters at;
  };

  /// Per-class aggregates of the traced run.
  struct ClassTotals {
    std::uint64_t calls = 0;
    sim::LatencyRecorder host_ns;
    layers::SpanCounters delta;
  };

  Recorder(core::Stack& stack, bool traced)
      : stack_(stack), traced_(traced), host0_(Clock::now()) {}

  // ---- ops -----------------------------------------------------------------

  /// Opens an op span; returns its handle (the `parent` of the op's api
  /// calls; kNoParent is never a handle).
  std::uint32_t op_begin(std::uint32_t track) {
    std::uint32_t slot;
    if (free_ops_.empty()) {
      slot = static_cast<std::uint32_t>(open_ops_.size());
      open_ops_.emplace_back();
    } else {
      slot = free_ops_.back();
      free_ops_.pop_back();
    }
    OpenOp& o = open_ops_[slot];
    // An op span has no call class; store_span(op=true) ignores it.
    o.token = begin_token(Call::kRingChain, kNoParent, track);
    o.children = 0;
    if (traced_) gauges_.sample(stack_);
    return slot + 1;
  }

  void op_end(std::uint32_t handle) {
    OpenOp& o = open_ops_[handle - 1];
    if (o.children != 0) ++nesting_errors_;
    op_latency_.add(stack_.sim().now() - o.token.sim_start);
    if (traced_) {
      gauges_.sample(stack_);
      store_span(o.token, /*op=*/true, true);
    }
    free_ops_.push_back(handle - 1);
  }

  // ---- api calls -------------------------------------------------------------

  Token begin(Call cls, std::uint32_t parent, std::uint32_t track) {
    if (cls != Call::kRingChain) ++attempted_;  // a chain is not a call
    Token t = begin_token(cls, parent, track);
    if (parent != kNoParent) {
      OpenOp& o = open_ops_[parent - 1];
      ++o.children;
      t.parent_id = o.token.id;
    }
    return t;
  }

  void end(const Token& t, Intent intent, bool ok) {
    const sim::SimTime lat = stack_.sim().now() - t.sim_start;
    latency_[static_cast<std::size_t>(t.cls)].add(lat);
    if (intent == Intent::kDurable) durable_.add(lat);
    if (intent == Intent::kOrder) order_.add(lat);
    if (t.parent != kNoParent) {
      OpenOp& o = open_ops_[t.parent - 1];
      if (o.children == 0 || t.sim_start < o.token.sim_start)
        ++nesting_errors_;
      else
        --o.children;
    }
    if (traced_) store_span(t, /*op=*/false, ok);
  }

  /// An errno the generator did not expect.
  void unexpected() noexcept { ++unexpected_; }
  void add_user_pages(std::uint32_t n) noexcept { user_pages_ += n; }
  void sample_inflight(std::uint32_t n) noexcept {
    inflight_sum_ += n;
    ++inflight_samples_;
  }

  // ---- results ---------------------------------------------------------------

  const sim::LatencyRecorder& ops() const noexcept { return op_latency_; }
  const sim::LatencyRecorder& durable() const noexcept { return durable_; }
  const sim::LatencyRecorder& order() const noexcept { return order_; }
  const sim::LatencyRecorder& latency(Call c) const {
    return latency_[static_cast<std::size_t>(c)];
  }
  const ClassTotals& totals(Call c) const {
    return totals_[static_cast<std::size_t>(c)];
  }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t unexpected_errors() const noexcept { return unexpected_; }
  std::uint64_t nesting_errors() const noexcept { return nesting_errors_; }
  std::uint64_t user_pages() const noexcept { return user_pages_; }
  double inflight_mean() const noexcept {
    return inflight_samples_ == 0 ? 0.0
                                  : static_cast<double>(inflight_sum_) /
                                        static_cast<double>(inflight_samples_);
  }
  const layers::Gauges& gauges() const noexcept { return gauges_; }

  /// Writes the stored spans as Chrome trace-event JSON (Perfetto opens
  /// it). Timestamps are simulated microseconds; `host_ns` args are only
  /// written when `host_times` (single-client workloads, where calls do not
  /// overlap in host time).
  bool write_chrome_trace(const std::string& path, bool host_times) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(
          f,
          "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
          "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, "
          "\"parent\": %u, \"ok\": %s, \"journal_commits\": %llu, "
          "\"blk_requests\": %llu, \"flash_cmds\": %llu, "
          "\"flash_flushes\": %llu, \"sim_events\": %llu",
          s.op ? "op" : kCallNames[static_cast<std::size_t>(s.cls)],
          s.op ? "op" : "api", s.track,
          static_cast<double>(s.sim_start) / 1e3,
          static_cast<double>(s.sim_end - s.sim_start) / 1e3, s.id, s.parent,
          s.ok ? "true" : "false",
          static_cast<unsigned long long>(s.delta.commits),
          static_cast<unsigned long long>(s.delta.requests),
          static_cast<unsigned long long>(s.delta.cmds),
          static_cast<unsigned long long>(s.delta.flushes),
          static_cast<unsigned long long>(s.delta.events));
      if (host_times)
        std::fprintf(f, ", \"host_ns\": %lld",
                     static_cast<long long>(s.host_end - s.host_start));
      std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = kNoParent;
    std::uint32_t track = 0;
    Call cls = Call::kPwrite;
    bool op = false;
    bool ok = true;
    sim::SimTime sim_start = 0;
    sim::SimTime sim_end = 0;
    std::int64_t host_start = 0;
    std::int64_t host_end = 0;
    layers::SpanCounters delta;
  };
  struct OpenOp {
    Token token;
    std::uint32_t children = 0;
  };

  std::int64_t host_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                host0_)
        .count();
  }

  Token begin_token(Call cls, std::uint32_t parent, std::uint32_t track) {
    Token t;
    t.cls = cls;
    t.id = next_id_++;
    t.parent = parent;
    t.track = track;
    t.sim_start = stack_.sim().now();
    if (traced_) {
      t.at = layers::read_span(stack_);
      t.host_start = host_now();
    }
    return t;
  }

  void store_span(const Token& t, bool op, bool ok) {
    Span s;
    s.host_end = host_now();
    const layers::SpanCounters now = layers::read_span(stack_);
    s.delta = {now.commits - t.at.commits, now.requests - t.at.requests,
               now.cmds - t.at.cmds, now.flushes - t.at.flushes,
               now.events - t.at.events};
    s.id = t.id;
    s.parent = t.parent_id;
    s.track = t.track;
    s.cls = t.cls;
    s.op = op;
    s.ok = ok;
    s.sim_start = t.sim_start;
    s.sim_end = stack_.sim().now();
    s.host_start = t.host_start;
    if (!op) {
      ClassTotals& c = totals_[static_cast<std::size_t>(t.cls)];
      ++c.calls;
      c.host_ns.add(static_cast<sim::SimTime>(s.host_end - s.host_start));
      c.delta.commits += s.delta.commits;
      c.delta.requests += s.delta.requests;
      c.delta.cmds += s.delta.cmds;
      c.delta.flushes += s.delta.flushes;
      c.delta.events += s.delta.events;
    }
    if (spans_.size() < kMaxTraceSpans) spans_.push_back(s);
  }

  core::Stack& stack_;
  bool traced_;
  Clock::time_point host0_;
  std::uint32_t next_id_ = 1;
  std::vector<OpenOp> open_ops_;
  std::vector<std::uint32_t> free_ops_;

  sim::LatencyRecorder op_latency_;
  sim::LatencyRecorder durable_;
  sim::LatencyRecorder order_;
  std::array<sim::LatencyRecorder, kCalls> latency_;
  std::array<ClassTotals, kCalls> totals_;
  std::uint64_t attempted_ = 0;
  std::uint64_t unexpected_ = 0;
  std::uint64_t nesting_errors_ = 0;
  std::uint64_t user_pages_ = 0;
  std::uint64_t inflight_sum_ = 0;
  std::uint64_t inflight_samples_ = 0;
  layers::Gauges gauges_;
  std::vector<Span> spans_;
};

}  // namespace iobench
