// flash::FaultPlan — deterministic, seed-driven device fault schedule.
//
// A plan is a list of FaultSpecs matched against the device's per-class op
// ordinals (writes and reads count separately, retries included) and the
// LBAs a command touches. The device consults the plan at the moment a
// command would land its payload; a matching spec decides the command's
// completion IoStatus and, for torn writes, how many leading blocks of the
// multi-block payload actually reach the writeback cache.
//
// Fault classes model how real flash fails (ISSUE 7 / PAPERS.md
// §reliability):
//   * kTransientProgram / kTransientRead — soft failures that a host-side
//     retry of the same command will clear (the spec is spent once fired).
//   * kHardMedia — a media error; retrying cannot help, the block layer
//     fails through immediately.
//   * kTornWrite — the first `torn_keep` blocks of a multi-block write
//     land, the rest do not, and the command reports a transient error.
//     A successful retry re-lands the full payload (versions are content
//     identity, so the overlap is idempotent); a crash before the retry
//     leaves the torn prefix on media — the case the fault crash sweep's
//     "never replays as committed" oracle fact exists for.
//
// Ordinals are counted only while a plan is installed, so a plan installed
// before StorageDevice::start() sees a deterministic op stream for a given
// workload seed. With no plan installed the device hot path pays exactly
// one null-pointer test per command.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "flash/types.h"

namespace bio::flash {

/// FaultSpec::lba wildcard: match any LBA the command touches.
inline constexpr Lba kAnyLba = ~Lba{0};

enum class FaultKind : std::uint8_t {
  kTransientProgram,
  kTransientRead,
  kHardMedia,
  kTornWrite,
};

struct FaultSpec {
  FaultKind kind = FaultKind::kTransientProgram;
  /// Per-class device op ordinal this spec fires at (1-based, retries
  /// included). 0 = any ordinal; combine with an `lba` filter.
  std::uint64_t at_op = 0;
  /// Only fire when the command touches this LBA (kAnyLba = no filter).
  Lba lba = kAnyLba;
  /// kTornWrite: leading blocks of the payload that land before the tear.
  std::uint32_t torn_keep = 0;
  /// Firings before the spec is spent (transient faults default to one, so
  /// the retried command succeeds).
  std::uint32_t count = 1;
};

class FaultPlan {
 public:
  struct Stats {
    std::uint64_t transient_program = 0;
    std::uint64_t transient_read = 0;
    std::uint64_t hard_media = 0;
    std::uint64_t torn_writes = 0;
    std::uint64_t total() const noexcept {
      return transient_program + transient_read + hard_media + torn_writes;
    }
  };

  FaultPlan() = default;

  void add(const FaultSpec& spec) { specs_.push_back(spec); }

  /// Deterministic random plan: 1..max_faults write-path specs
  /// (transient program, hard media, torn write) spread over roughly
  /// `expected_write_ops` write ordinals. Same seed, same plan.
  static FaultPlan random(std::uint64_t seed, std::uint64_t expected_write_ops,
                          std::uint32_t max_faults = 6);

  /// Device-side consultation. Returns the spec that fires for this write
  /// op (consuming one firing and recording it in stats), or nullptr.
  const FaultSpec* match_write(
      std::uint64_t op_ordinal,
      std::span<const std::pair<Lba, Version>> blocks);

  /// Same for a read op.
  const FaultSpec* match_read(std::uint64_t op_ordinal, Lba lba);

  const Stats& stats() const noexcept { return stats_; }
  const std::vector<FaultSpec>& specs() const noexcept { return specs_; }
  bool empty() const noexcept { return specs_.empty(); }

 private:
  std::vector<FaultSpec> specs_;
  Stats stats_;
};

}  // namespace bio::flash
