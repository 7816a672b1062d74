// Shared vocabulary types for the simulated Flash storage device.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace bio::flash {

/// Host logical block address in 4 KiB units.
using Lba = std::uint64_t;

/// Monotonically increasing content tag carried by each write. The
/// simulation does not store real data; crash-consistency checks compare
/// versions instead of bytes.
using Version = std::uint64_t;

/// 4 KiB, the unit of host IO in all of the paper's experiments.
inline constexpr std::uint32_t kBlockSize = 4096;

enum class OpCode : std::uint8_t {
  kWrite,
  kRead,
  kFlush,
};

/// SCSI command priority (§3.4). ORDERED commands drain everything ahead of
/// them and fence everything behind them; HEAD_OF_QUEUE jumps the line.
enum class Priority : std::uint8_t {
  kSimple,
  kOrdered,
  kHeadOfQueue,
};

/// How the device guarantees the persist order imposed by barrier writes
/// (§3.2 of the paper). Of the paper's three barrier-compliant designs only
/// in-order recovery is modelled: it is the one the authors' UFS firmware
/// implements, and the one every barrier stack here builds.
enum class BarrierMode : std::uint8_t {
  /// No barrier support: barrier flags are ignored (legacy device).
  kNone,
  /// Log-structured writeback with crash-recovery truncation at the first
  /// unprogrammed page — the paper's UFS firmware implementation.
  kInOrderRecovery,
};

/// Completion status of a storage command. Devices fail: transiently (a
/// soft program/read error or a torn multi-block write a host retry will
/// clear) or hard (a media error no retry helps). The block layer's retry
/// policy keys off this distinction.
enum class [[nodiscard]] IoStatus : std::uint8_t {
  kOk,
  kTransientError,
  kHardError,
};

}  // namespace bio::flash
