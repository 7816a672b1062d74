#include "flash/fault.h"

#include <algorithm>
#include <cmath>

#include "sim/rng.h"

namespace bio::flash {

FaultPlan FaultPlan::random(std::uint64_t seed,
                            std::uint64_t expected_write_ops,
                            std::uint32_t max_faults) {
  sim::Rng rng(seed ^ 0xfa017101dULL);
  FaultPlan plan;
  const std::uint64_t span = std::max<std::uint64_t>(expected_write_ops, 1);
  const std::uint64_t n = rng.uniform(1, std::max<std::uint32_t>(max_faults, 1));
  for (std::uint64_t i = 0; i < n; ++i) {
    FaultSpec s;
    // Write-path kinds only: the fault sweep's writers read through the
    // page cache, so a kTransientRead spec would never reach a device read.
    const std::uint64_t roll = rng.uniform(0, 7);
    if (roll < 4) {
      s.kind = FaultKind::kTransientProgram;
    } else if (roll < 6) {
      s.kind = FaultKind::kHardMedia;
    } else {
      s.kind = FaultKind::kTornWrite;
      s.torn_keep = static_cast<std::uint32_t>(rng.uniform(1, 3));
    }
    // Log-uniform ordinal: a crash sweep cuts runs anywhere from a few ops
    // in to full completion, so cluster placements toward early ordinals
    // (half the mass below sqrt(span)) while still reaching late ones.
    const double u = rng.uniform_real(0.0, 1.0);
    s.at_op = static_cast<std::uint64_t>(
        std::pow(static_cast<double>(span), u));
    if (s.at_op < 1) s.at_op = 1;
    if (s.at_op > span) s.at_op = span;
    plan.add(s);
  }
  return plan;
}

const FaultSpec* FaultPlan::match_write(
    std::uint64_t op_ordinal,
    std::span<const std::pair<Lba, Version>> blocks) {
  for (FaultSpec& s : specs_) {
    if (s.count == 0) continue;
    if (s.kind == FaultKind::kTransientRead) continue;
    if (s.at_op != 0 && s.at_op != op_ordinal) continue;
    if (s.lba != kAnyLba) {
      const bool touches =
          std::any_of(blocks.begin(), blocks.end(),
                      [&](const auto& b) { return b.first == s.lba; });
      if (!touches) continue;
    }
    --s.count;
    switch (s.kind) {
      case FaultKind::kTransientProgram: ++stats_.transient_program; break;
      case FaultKind::kHardMedia: ++stats_.hard_media; break;
      case FaultKind::kTornWrite: ++stats_.torn_writes; break;
      case FaultKind::kTransientRead: break;  // filtered above
    }
    return &s;
  }
  return nullptr;
}

const FaultSpec* FaultPlan::match_read(std::uint64_t op_ordinal, Lba lba) {
  for (FaultSpec& s : specs_) {
    if (s.count == 0) continue;
    if (s.kind != FaultKind::kTransientRead && s.kind != FaultKind::kHardMedia)
      continue;
    // Hard media faults only hit reads through an explicit LBA filter;
    // ordinal-scheduled hard faults target the write stream.
    if (s.kind == FaultKind::kHardMedia && s.lba == kAnyLba) continue;
    if (s.at_op != 0 && s.at_op != op_ordinal) continue;
    if (s.lba != kAnyLba && s.lba != lba) continue;
    --s.count;
    if (s.kind == FaultKind::kTransientRead)
      ++stats_.transient_read;
    else
      ++stats_.hard_media;
    return &s;
  }
  return nullptr;
}

}  // namespace bio::flash
