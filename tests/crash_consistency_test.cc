// Crash-consistency property tests (DESIGN.md §6 invariants).
//
// The device exposes durable_state() = "what recovery reconstructs if power
// fails right now". These tests cut power at arbitrary instants of random
// workloads and check the paper's ordering guarantees:
//   1. Epoch prefix durability on barrier-compliant devices.
//   2. fdatabarrier(): Hello-before-World across a crash.
//   3. Journal commit order/atomicity (JC never durable without its JD,
//      transactions durable in commit order) on the barrier stack.
//   4. An fsync that returned implies durable data (EXT4-DR, BFS-DR).
//   5. The legacy stack (nobarrier, orderless device) CAN violate ordering —
//      demonstrating the problem the paper sets out to fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "blk/block_layer.h"
#include "flash_test_util.h"
#include "fs_test_util.h"
#include "sim/rng.h"

namespace bio {
namespace {

using namespace bio::sim::literals;
using core::StackKind;
using flash::BarrierMode;
using flash::Lba;
using flash::Version;
using fs::Syscall;
using sim::Task;

// ---- invariant checkers ----------------------------------------------------

/// Epoch prefix: if any entry of epoch e persisted (its version or a later
/// one for that lba), every entry of every epoch < e must have persisted.
testing::AssertionResult epoch_prefix_holds(
    const std::vector<flash::WritebackCache::Entry>& history,
    const std::unordered_map<Lba, Version>& durable) {
  auto present = [&](const flash::WritebackCache::Entry& e) {
    auto it = durable.find(e.lba);
    return it != durable.end() && it->second >= e.version;
  };
  std::uint64_t max_durable_epoch = 0;
  bool any = false;
  for (const auto& e : history) {
    if (present(e)) {
      max_durable_epoch = std::max(max_durable_epoch, e.epoch);
      any = true;
    }
  }
  if (!any) return testing::AssertionSuccess();
  for (const auto& e : history) {
    if (e.epoch < max_durable_epoch && !present(e)) {
      return testing::AssertionFailure()
             << "entry lba=" << e.lba << " v=" << e.version << " of epoch "
             << e.epoch << " lost although epoch " << max_durable_epoch
             << " has persisted entries";
    }
  }
  return testing::AssertionSuccess();
}

// ---- 1. block-level epoch prefix on the barrier device ---------------------

class EpochPrefixTest
    : public testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(EpochPrefixTest, RandomWorkloadRandomCrashPoint) {
  const auto [plp, seed] = GetParam();
  sim::Simulator sim;
  flash::DeviceProfile profile =
      flash::testutil::test_profile(BarrierMode::kInOrderRecovery, plp);
  flash::StorageDevice dev(sim, profile);
  flash::WritebackCache::TransferRecorder xfers;
  dev.install_transfer_recorder(&xfers);
  blk::BlockLayer blk(sim, dev, {});  // the elevator reorders each epoch
  dev.start();
  blk.start();

  sim::Rng rng(static_cast<std::uint64_t>(seed));
  auto workload = [&]() -> Task {
    // Page-cache-realistic stream: a page is written at most once per
    // epoch (the kernel keeps one buffer per page), epochs of 1..8 writes.
    // The lba cycles over a 32-page working set, so overwrites happen
    // across epochs but never inside one — intra-epoch duplicate writes
    // are impossible in a real stack and would legally race.
    std::uint64_t until_barrier = rng.uniform(1, 8);
    for (int i = 0; i < 120; ++i) {
      const Lba lba = static_cast<Lba>(i % 32);
      const bool barrier = --until_barrier == 0;
      if (barrier) until_barrier = rng.uniform(1, 8);
      blk.submit(blk.pool().make_write({{lba, blk.next_version()}},
                                       /*ordered=*/true, barrier));
      if (rng.chance(0.3)) co_await sim.delay(rng.uniform(1, 300) * 1_us);
    }
  };
  sim.spawn("w", workload());

  const sim::SimTime crash_at = rng.uniform(50, 40'000) * 1_us;
  sim.run_until(crash_at);
  EXPECT_TRUE(epoch_prefix_holds(xfers, dev.durable_state()))
      << "plp=" << plp << " seed=" << seed << " t=" << crash_at;
}

INSTANTIATE_TEST_SUITE_P(
    InOrderRecovery, EpochPrefixTest,
    testing::Combine(testing::Values(false, true), testing::Range(1, 9)),
    [](const testing::TestParamInfo<EpochPrefixTest::ParamType>& info) {
      return (std::get<0>(info.param) ? "plp_" : "noplp_") +
             std::to_string(std::get<1>(info.param));
    });

// ---- 1b. durable state across many cuts while GC relocates ----------------
//
// durable_state() folds each programmed record into its LBA's durable
// version and keeps only the records still being programmed; this drives
// that fold (and the relocations GC appends) across many cut instants of
// one run, on every device model a stack can sit on.

enum class CutDevice { kInOrderNoPlp, kInOrderPlp, kOrderless };

std::string to_string(CutDevice d) {
  switch (d) {
    case CutDevice::kInOrderNoPlp: return "inorder_noplp";
    case CutDevice::kInOrderPlp: return "inorder_plp";
    case CutDevice::kOrderless: return "orderless";
  }
  return "?";
}

class DurableUnderGcTest
    : public testing::TestWithParam<std::tuple<CutDevice, int>> {};

TEST_P(DurableUnderGcTest, EveryCutIsAnEpochPrefixAndNeverRegresses) {
  const auto [device, seed] = GetParam();
  using flash::testutil::make_write;
  using flash::testutil::submit_retry;
  sim::Simulator sim;
  flash::StorageDevice dev(
      sim, flash::testutil::test_profile(
               device == CutDevice::kOrderless ? BarrierMode::kNone
                                               : BarrierMode::kInOrderRecovery,
               device == CutDevice::kInOrderPlp));
  flash::WritebackCache::TransferRecorder xfers;
  dev.install_transfer_recorder(&xfers);
  // Age the FTL: 128 physical pages, three fifths already written, so the
  // overwrites below keep GC relocating live pages.
  sim::Rng prefill_rng(static_cast<std::uint64_t>(seed) + 100);
  dev.log().prefill(0.6, 64, prefill_rng);
  dev.start();

  constexpr Lba kSpan = 24;
  constexpr int kWrites = 300;
  sim::Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<bool> in_flight(kSpan, false);
  int outstanding = 0;
  bool done = false;
  auto one = [&](Lba lba, Version v, bool barrier) -> Task {
    auto w = make_write(sim, flash::testutil::one_block(lba, v),
                        flash::Priority::kOrdered, barrier);
    co_await submit_retry(sim, dev, w.cmd);
    co_await w.done->wait();
    in_flight[lba] = false;
    --outstanding;
  };
  auto writer = [&]() -> Task {
    std::uint64_t until_barrier = rng.uniform(1, 8);
    for (int i = 0; i < kWrites; ++i) {
      // The page cache never has two writes of one page in flight.
      while (outstanding == 4) co_await sim.delay(20_us);
      Lba lba = rng.uniform(0, kSpan - 1);
      while (in_flight[lba]) lba = (lba + 1) % kSpan;
      const bool barrier = --until_barrier == 0;
      if (barrier) until_barrier = rng.uniform(1, 8);
      in_flight[lba] = true;
      ++outstanding;
      // iolint: detached-owner(the cut loop runs the simulator until every
      // write completed; the captured state outlives it in this scope)
      sim.spawn("w", one(lba, static_cast<Version>(i + 1), barrier));
      if (rng.chance(0.5)) co_await sim.delay(rng.uniform(1, 60) * 1_us);
    }
    while (outstanding > 0) co_await sim.delay(20_us);
    done = true;
  };
  sim.spawn("writer", writer());

  std::unordered_map<Lba, Version> previous;
  int cuts = 0;
  for (sim::SimTime t = 100_us; !done; t += 100_us) {
    sim.run_until(t);
    const auto durable = dev.durable_state();
    ASSERT_TRUE(epoch_prefix_holds(xfers, durable)) << "cut at " << t;
    for (const auto& [lba, v] : previous) {
      auto it = durable.find(lba);
      ASSERT_TRUE(it != durable.end() && it->second >= v)
          << "lba " << lba << " regressed from v" << v << " at " << t;
    }
    // Without PLP nothing counts as durable before its program finished.
    if (device != CutDevice::kInOrderPlp) {
      for (const auto& e : dev.cache().undrained_entries()) {
        auto it = durable.find(e.lba);
        ASSERT_TRUE(it == durable.end() || it->second != e.version)
            << "lba " << e.lba << " v" << e.version
            << " durable before it was programmed, at " << t;
      }
    }
    previous = durable;
    ++cuts;
  }
  EXPECT_GE(cuts, 50);
  EXPECT_GT(dev.log().gc_stats().pages_copied, 0u)
      << "GC relocated nothing before the last cut";

  sim.run();  // quiescence: every transferred block programmed
  std::unordered_map<Lba, Version> newest;
  for (const auto& e : xfers)
    newest[e.lba] = std::max(newest[e.lba], e.version);
  const auto durable = dev.durable_state();
  for (const auto& [lba, v] : newest) {
    auto it = durable.find(lba);
    ASSERT_TRUE(it != durable.end()) << "lba " << lba << " lost";
    EXPECT_EQ(it->second, v) << "lba " << lba;
  }
  for (const auto& [lba, v] : durable) {
    if (!newest.contains(lba)) {
      EXPECT_EQ(v, 0u) << "prefill lba " << lba;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Devices, DurableUnderGcTest,
    testing::Combine(testing::Values(CutDevice::kInOrderNoPlp,
                                     CutDevice::kInOrderPlp,
                                     CutDevice::kOrderless),
                     testing::Range(1, 4)),
    [](const testing::TestParamInfo<DurableUnderGcTest::ParamType>& info) {
      return to_string(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// ---- 2. legacy device can violate ordering ---------------------------------

TEST(OrderlessBaselineTest, LegacyStackCanLoseOrdering) {
  // kNone device, so the block layer strips ordering in front of it: find at
  // least one (seed, crash time) where an epoch-later write persisted while
  // an earlier one was lost. This is Fig 1's motivation: the orderless IO
  // stack gives no guarantee.
  bool violated = false;
  for (int seed = 1; seed <= 30 && !violated; ++seed) {
    sim::Simulator sim;
    flash::DeviceProfile profile =
        flash::testutil::test_profile(BarrierMode::kNone);
    profile.cache_entries = 64;
    flash::StorageDevice dev(sim, profile);
    flash::WritebackCache::TransferRecorder xfers;
    dev.install_transfer_recorder(&xfers);
    blk::BlockLayer blk(sim, dev, {});  // the legacy stack reorders
    dev.start();
    blk.start();
    sim::Rng rng(static_cast<std::uint64_t>(seed));
    auto workload = [&]() -> Task {
      for (int i = 0; i < 60; ++i) {
        // Intent: barrier after every write (strict order), which the
        // legacy stack ignores.
        const Lba lba = rng.uniform(0, 15);
        blk.submit(blk.pool().make_write({{lba, blk.next_version()}}, true,
                                         /*barrier=*/true));
      }
      co_return;
    };
    sim.spawn("w", workload());
    sim.run_until(rng.uniform(100, 2'000) * 1_us);
    // Epochs were not honoured (device ignores barrier): reconstruct the
    // *intended* epochs (one per write, in submission = version order).
    std::vector<flash::WritebackCache::Entry> intended = xfers;
    std::sort(intended.begin(), intended.end(),
              [](const auto& a, const auto& b) {
                return a.version < b.version;
              });
    for (std::uint64_t i = 0; i < intended.size(); ++i)
      intended[i].epoch = i;  // each write its own epoch, program order
    if (!epoch_prefix_holds(intended, dev.durable_state())) violated = true;
  }
  EXPECT_TRUE(violated)
      << "the orderless stack never violated ordering across 30 seeds — "
         "the baseline would be indistinguishable from the barrier stack";
}

// ---- 3. fdatabarrier Hello/World at the filesystem level -------------------

class HelloWorldTest : public testing::TestWithParam<int> {};

TEST_P(HelloWorldTest, WorldNeverPersistsWithoutHello) {
  const int seed = GetParam();
  fs::testutil::StackFixture x(StackKind::kBfsDR);
  sim::Rng rng(static_cast<std::uint64_t>(seed));

  struct Pair {
    Lba hello_lba;
    Version hello_v;
    Lba world_lba;
    Version world_v;
  };
  std::vector<Pair> pairs;

  auto body = [&]() -> Task {
    fs::Inode* f = nullptr;
    co_await x.fs().create("db", f, 64);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().sync(*f, Syscall::kFsync);  // settle create metadata
    for (int i = 0; i < 40; ++i) {
      const std::uint32_t hp = static_cast<std::uint32_t>(
          rng.uniform(0, 30));
      co_await x.fs().write(*f, hp, 1);
      Pair p;
      p.hello_lba = f->lba_of_page(hp);
      p.hello_v = x.fs().page_cache().find(f->ino, hp)->version;
      co_await x.fs().sync(*f, Syscall::kFdatabarrier);
      const std::uint32_t wp = static_cast<std::uint32_t>(
          rng.uniform(31, 60));
      co_await x.fs().write(*f, wp, 1);
      p.world_lba = f->lba_of_page(wp);
      p.world_v = x.fs().page_cache().find(f->ino, wp)->version;
      co_await x.fs().sync(*f, Syscall::kFdatabarrier);
      pairs.push_back(p);
      if (rng.chance(0.3)) co_await x.sim().delay(rng.uniform(1, 200) * 1_us);
    }
  };
  x.sim().spawn("app", body());
  x.sim().run_until(rng.uniform(200, 30'000) * 1_us);

  auto durable = x.dev().durable_state();
  auto has = [&](Lba lba, Version v) {
    auto it = durable.find(lba);
    return it != durable.end() && it->second >= v;
  };
  for (const Pair& p : pairs) {
    if (has(p.world_lba, p.world_v)) {
      EXPECT_TRUE(has(p.hello_lba, p.hello_v))
          << "World (v" << p.world_v << ") persisted without Hello (v"
          << p.hello_v << ") — fdatabarrier ordering broken";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HelloWorldTest, testing::Range(1, 13));

// ---- 4. journal commit order & atomicity -----------------------------------

class JournalCrashTest
    : public testing::TestWithParam<std::tuple<StackKind, int>> {};

TEST_P(JournalCrashTest, CommittedTransactionsFormAPrefix) {
  const auto [kind, seed] = GetParam();
  fs::testutil::StackFixture x(kind);
  sim::Rng rng(static_cast<std::uint64_t>(seed));

  auto body = [&]() -> Task {
    std::vector<fs::Inode*> files(4);
    for (int i = 0; i < 4; ++i) {
      fs::Inode* f = nullptr;
      co_await x.fs().create("f" + std::to_string(i), f, 64);
      files[static_cast<std::size_t>(i)] = f;
    }
    for (int i = 0; i < 50; ++i) {
      fs::Inode* f = files[rng.uniform(0, 3)];
      co_await x.sim().delay(5_ms);  // cross a tick: metadata dirty
      co_await x.fs().write(
          *f, static_cast<std::uint32_t>(rng.uniform(0, 60)), 1);
      if (kind == StackKind::kBfsDR && rng.chance(0.5))
        co_await x.fs().sync(*f, Syscall::kFbarrier);
      else
        co_await x.fs().sync(*f, Syscall::kFsync);
    }
  };
  x.sim().spawn("app", body());
  // The journal releases a transaction once its tail moves past it and
  // reuses its object, so record each transaction's records as it retires:
  // a release trails its retire by at least a checkpoint write and a
  // flush, far more than one step.
  const sim::SimTime crash_at = rng.uniform(1'000, 200'000) * 1_us;
  struct Committed {
    std::uint64_t id = 0;
    std::vector<std::pair<Lba, Version>> jd;
    std::pair<Lba, Version> jc;
  };
  std::vector<Committed> order;  // ids 1, 2, ...
  const fs::Journal& j = x.fs().journal();
  for (sim::SimTime t = 0; t < crash_at;) {
    t = std::min(t + 50_us, crash_at);
    x.sim().run_until(t);
    for (std::uint64_t id = order.size() + 1; j.is_retired(id); ++id) {
      const fs::Txn* txn = j.find_txn(id);
      ASSERT_NE(txn, nullptr)
          << "txn " << id << " released before it was recorded";
      order.push_back(Committed{id, txn->jd_blocks, txn->jc_block});
    }
  }

  auto durable = x.dev().durable_state();
  auto has = [&](const std::pair<Lba, Version>& blockv) {
    auto it = durable.find(blockv.first);
    return it != durable.end() && it->second >= blockv.second;
  };
  bool seen_missing = false;
  for (const Committed& txn : order) {
    const bool jc_durable = has(txn.jc);
    if (jc_durable) {
      EXPECT_FALSE(seen_missing)
          << "txn " << txn.id << " durable after a lost predecessor — "
             "commit order violated";
      for (const auto& jd : txn.jd)
        EXPECT_TRUE(has(jd)) << "txn " << txn.id
                             << ": commit record durable but a descriptor/"
                                "log block is missing (atomicity broken)";
    } else {
      seen_missing = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, JournalCrashTest,
    testing::Combine(testing::Values(StackKind::kExt4DR, StackKind::kBfsDR),
                     testing::Range(1, 9)),
    [](const testing::TestParamInfo<JournalCrashTest::ParamType>& info) {
      std::string name = core::to_string(std::get<0>(info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(std::get<1>(info.param));
    });

// ---- 5. acknowledged fsync implies durable data -----------------------------

class AckedFsyncTest
    : public testing::TestWithParam<std::tuple<StackKind, int>> {};

TEST_P(AckedFsyncTest, ReturnedFsyncIsDurableAtCrash) {
  const auto [kind, seed] = GetParam();
  fs::testutil::StackFixture x(kind);
  sim::Rng rng(static_cast<std::uint64_t>(seed));

  struct Acked {
    Lba lba;
    Version version;
  };
  std::vector<Acked> acked;

  auto body = [&]() -> Task {
    fs::Inode* f = nullptr;
    co_await x.fs().create("db", f, 64);
    for (int i = 0; i < 40; ++i) {
      const std::uint32_t p =
          static_cast<std::uint32_t>(rng.uniform(0, 50));
      co_await x.fs().write(*f, p, 1);
      const Version v = x.fs().page_cache().find(f->ino, p)->version;
      co_await x.fs().sync(*f, Syscall::kFsync);
      acked.push_back({f->lba_of_page(p), v});
    }
  };
  x.sim().spawn("app", body());
  x.sim().run_until(rng.uniform(500, 100'000) * 1_us);

  auto durable = x.dev().durable_state();
  for (const Acked& a : acked) {
    auto it = durable.find(a.lba);
    const bool ok = it != durable.end() && it->second >= a.version;
    EXPECT_TRUE(ok) << core::to_string(kind)
                    << ": fsync returned for lba " << a.lba << " v"
                    << a.version << " but the data did not survive";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DurabilityStacks, AckedFsyncTest,
    testing::Combine(testing::Values(StackKind::kExt4DR, StackKind::kBfsDR),
                     testing::Range(1, 9)),
    [](const testing::TestParamInfo<AckedFsyncTest::ParamType>& info) {
      std::string name = core::to_string(std::get<0>(info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace bio
