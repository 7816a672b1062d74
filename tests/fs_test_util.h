// Helpers for filesystem/stack tests: a small fast stack fixture.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/stack.h"
#include "flash_test_util.h"

namespace bio::fs::testutil {

/// StackConfig for `kind` on the tiny test device (larger than the device
/// tests' profile so filesystem workloads fit comfortably).
inline core::StackConfig test_stack_config(core::StackKind kind) {
  flash::DeviceProfile dev =
      flash::testutil::test_profile(flash::BarrierMode::kNone);
  dev.geometry.blocks_per_chip = 64;   // 4 chips * 64 * 4 = 1024 pages
  dev.queue_depth = 16;
  dev.cache_entries = 64;
  core::StackConfig cfg = core::StackConfig::make(kind, dev);
  cfg.fs.journal_blocks = 256;
  cfg.fs.max_inodes = 64;
  cfg.fs.default_extent_blocks = 64;
  cfg.fs.writeback_high_watermark = 1u << 20;  // pdflush off unless wanted
  return cfg;
}

struct StackFixture {
  std::unique_ptr<core::Stack> stack;

  explicit StackFixture(core::StackKind kind,
                        core::StackConfig* custom = nullptr) {
    core::StackConfig cfg = custom ? *custom : test_stack_config(kind);
    stack = std::make_unique<core::Stack>(cfg);
    stack->start();
  }

  sim::Simulator& sim() { return stack->sim(); }
  fs::Filesystem& fs() { return stack->fs(); }
  flash::StorageDevice& dev() { return stack->device(); }
};

/// The journal's retired transactions that the tail has not released, in
/// commit order: transactions retire and are released in id order, so
/// these are the ids from sb_tail_txn() up to the first one that has not
/// retired.
inline std::vector<const Txn*> retired_txns(const Journal& journal) {
  std::vector<const Txn*> out;
  for (std::uint64_t id = journal.sb_tail_txn(); journal.is_retired(id); ++id)
    out.push_back(journal.find_txn(id));
  return out;
}

/// NodeConfig with one test-sized volume per kind, named "v0", "v1", ...
inline core::NodeConfig test_node_config(
    const std::vector<core::StackKind>& kinds) {
  std::vector<core::StackConfig> bases;
  for (core::StackKind kind : kinds) bases.push_back(test_stack_config(kind));
  return core::NodeConfig::from(bases);
}

/// A started multi-volume node (volumes "v0", "v1", ... per `kinds`).
struct NodeFixture {
  std::unique_ptr<core::Stack> node;

  explicit NodeFixture(const std::vector<core::StackKind>& kinds,
                       const core::NodeConfig* custom = nullptr) {
    node = std::make_unique<core::Stack>(custom ? *custom
                                                : test_node_config(kinds));
    node->start();
  }

  sim::Simulator& sim() { return node->sim(); }
  core::Volume& vol(std::size_t i) { return node->volume(i); }
  fs::Filesystem& fs(std::size_t i) { return node->volume(i).fs(); }
};

}  // namespace bio::fs::testutil
