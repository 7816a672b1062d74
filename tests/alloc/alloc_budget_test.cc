// Tier-1 allocation budget for the steady-state IO path below api::Vfs.
//
// A binary of its own: it replaces the global operator new to count calls,
// and inside bio_tests that replacement would blind ASan's new/delete
// checks for every other test. Under TSan the counting operator new is
// compiled out (as in bench/perf_suite.cc) and the budget tests skip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "api/vfs.h"
#include "core/stack.h"
#include "flash/profile.h"
#include "sim/rng.h"
#include "sim/simulator.h"

// Relaxed atomic: exact for counting, safe whichever thread allocates.
static std::atomic<std::uint64_t> g_new_calls{0};

#if defined(__SANITIZE_THREAD__)
#define BIO_ALLOC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BIO_ALLOC_TSAN 1
#endif
#endif

#if !defined(BIO_ALLOC_TSAN)
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
#endif  // !BIO_ALLOC_TSAN

namespace bio {
namespace {

std::uint64_t new_calls() {
  return g_new_calls.load(std::memory_order_relaxed);
}

#if defined(BIO_ALLOC_TSAN)
#define SKIP_WITHOUT_COUNTER() \
  GTEST_SKIP() << "allocation counter compiled out under TSan"
#else
#define SKIP_WITHOUT_COUNTER() (void)0
#endif

// A small database, so the warm-up touches every page (and every cache
// slot and index node it needs) before the measured window opens.
constexpr std::uint32_t kDbPages = 256;
constexpr std::uint32_t kJournalExtent = 256;
constexpr std::uint64_t kWarmupTxns = 2'000;
constexpr std::uint64_t kMeasuredTxns = 2'000;
constexpr double kAllocsPerTxnBudget = 2.0;

/// One SQLite PERSIST insert (wl/sqlite.cc's persist_txn): undo log,
/// order point, journal header, order point, two B-tree pages, order
/// point, commit header, durability point.
sim::Task persist_txn(api::File& db, api::File& journal, sim::Rng& rng,
                      std::uint32_t& cursor) {
  if (cursor + 4 >= kJournalExtent) cursor = 1;
  api::must(co_await journal.pwrite(cursor, 2));
  cursor += 2;
  api::must(co_await journal.order_point());
  api::must(co_await journal.pwrite(0, 1));
  api::must(co_await journal.order_point());
  for (int i = 0; i < 2; ++i) {
    const auto page = static_cast<std::uint32_t>(rng.uniform(0, kDbPages - 1));
    api::must(co_await db.pwrite(page, 1));
  }
  api::must(co_await db.order_point());
  api::must(co_await journal.pwrite(0, 1));
  api::must(co_await journal.durability_point());
}

/// Sets up the files, runs the warm-up, then counts operator-new calls
/// across the measured txns into `allocs`.
sim::Task sqlite_client(api::Vfs& vfs, std::uint64_t& allocs) {
  api::File db = api::must(
      co_await vfs.open("app.db", {.create = true, .extent_blocks = kDbPages}));
  for (std::uint32_t off = 0; off < kDbPages; off += blk::kMaxMergedBlocks) {
    api::must(co_await db.pwrite(
        off, std::min<std::uint32_t>(blk::kMaxMergedBlocks, kDbPages - off)));
    api::must(co_await db.fsync());
  }
  api::File journal = api::must(co_await vfs.open(
      "app.db-journal", {.create = true, .extent_blocks = kJournalExtent}));
  api::must(co_await journal.pwrite(0, 1));
  api::must(co_await journal.fsync());
  sim::Rng rng(3);
  std::uint32_t cursor = 1;
  for (std::uint64_t i = 0; i < kWarmupTxns; ++i)
    co_await persist_txn(db, journal, rng, cursor);
  const std::uint64_t before = new_calls();
  for (std::uint64_t i = 0; i < kMeasuredTxns; ++i)
    co_await persist_txn(db, journal, rng, cursor);
  allocs = new_calls() - before;
}

double allocs_per_txn(core::StackKind kind) {
  core::Stack stack(
      core::StackConfig::make(kind, flash::DeviceProfile::plain_ssd()));
  stack.start();
  api::Vfs vfs(stack);
  std::uint64_t allocs = ~std::uint64_t{0};
  // iolint: detached-owner(run() below drains the client; vfs and allocs
  // outlive the run in this scope)
  stack.sim().spawn("sqlite", sqlite_client(vfs, allocs));
  stack.sim().run();
  return static_cast<double>(allocs) / static_cast<double>(kMeasuredTxns);
}

TEST(AllocBudget, SqlitePersistOnBfsDr) {
  SKIP_WITHOUT_COUNTER();
  EXPECT_LE(allocs_per_txn(core::StackKind::kBfsDR), kAllocsPerTxnBudget);
}

TEST(AllocBudget, SqlitePersistOnExt4Dr) {
  SKIP_WITHOUT_COUNTER();
  EXPECT_LE(allocs_per_txn(core::StackKind::kExt4DR), kAllocsPerTxnBudget);
}

TEST(AllocBudget, ShortLivedSpawnsRecycleContexts) {
  SKIP_WITHOUT_COUNTER();
  sim::Simulator sim;
  std::uint64_t ran = 0;
  auto body = [&]() -> sim::Task {
    ++ran;
    co_await sim.delay(1);
  };
  // The first spawn sizes the context pool, the frame pool and the event
  // heap; every later one reuses them.
  sim.spawn("short", body());
  sim.run();
  const std::uint64_t before = new_calls();
  for (int i = 1; i < 100'000; ++i) {
    sim.spawn("short", body());
    sim.run();
  }
  EXPECT_EQ(new_calls() - before, 0u);
  EXPECT_EQ(ran, 100'000u);
}

}  // namespace
}  // namespace bio
