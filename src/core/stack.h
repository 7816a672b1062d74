// Public API: assembling whole IO stacks for an experiment.
//
// A Volume is one complete per-device IO stack — flash device, block layer
// and filesystem — wired per StackKind:
//
//   kind      | device barrier      | block layer          | filesystem
//   ----------+---------------------+----------------------+---------------
//   EXT4-DR   | none (legacy)       | legacy (elevator)    | JBD2
//   EXT4-OD   | none (legacy)       | legacy (elevator)    | JBD2 nobarrier
//   BFS-DR    | in-order recovery   | epoch + ordered disp.| BarrierFS
//   BFS-OD    | in-order recovery   | epoch + ordered disp.| BarrierFS
//   OptFS     | none (legacy)       | legacy (elevator)    | OptFS
//
// A Stack is a host node: it owns one shared sim::Simulator and one or
// more heterogeneous volumes (e.g. BFS-DR and EXT4-DR side by side, each
// with its own DeviceProfile) — the way a real host runs several
// independent journaled filesystems over several flash devices behind one
// syscall layer. The single-volume StackConfig constructor is the
// one-mount special case every per-device experiment uses; applications
// reach the volumes through api::Vfs, whose mount table routes
// "/<volume>/<file>" paths (and resolves per-volume SyncPolicy rows).
//
// DR/OD for BarrierFS differ in which syscalls the workloads call; the
// substitution table the paper uses (§5, §6.4, §6.5) lives in
// api::SyncPolicy, and applications reach it through api::Vfs/api::File.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "blk/block_layer.h"
#include "flash/device.h"
#include "flash/profile.h"
#include "fs/filesystem.h"
#include "sim/simulator.h"

namespace bio::core {

enum class StackKind : std::uint8_t {
  kExt4DR,  // EXT4, full durability (baseline)
  kExt4OD,  // EXT4 mounted nobarrier (ordering only, unsafely)
  kBfsDR,   // BarrierFS, fsync/fdatasync
  kBfsOD,   // BarrierFS, fbarrier/fdatabarrier
  kOptFs,   // OptFS osync
};

const char* to_string(StackKind k) noexcept;

/// One volume's wiring: device profile + block layer + filesystem, all
/// derived from (kind, device) by make(). `name` is the mount component
/// api::Vfs routes by ("/name/file"); single-volume stacks may leave it
/// empty (root mount).
struct VolumeConfig {
  StackKind kind = StackKind::kExt4DR;
  std::string name;
  flash::DeviceProfile device = flash::DeviceProfile::plain_ssd();
  blk::BlockLayerConfig blk;
  fs::FsConfig fs;

  /// Fills all dependent fields from (kind, device). Mobile devices get
  /// JBD2 transactional checksums, as the paper's smartphone setup does.
  static VolumeConfig make(StackKind kind, flash::DeviceProfile device,
                           std::string name = {});
};

/// One per-device IO stack living inside a node: flash device, block layer
/// and filesystem over a simulator the node shares across volumes. Each
/// volume has its own journal, its own recovery domain and its own stats —
/// nothing below the syscall layer is shared between volumes.
class Volume {
 public:
  Volume(sim::Simulator& sim, VolumeConfig config);

  /// Starts device, block layer, filesystem threads. Call once.
  void start();

  sim::Simulator& sim() noexcept { return sim_; }
  flash::StorageDevice& device() noexcept { return *device_; }
  blk::BlockLayer& blk() noexcept { return *blk_; }
  fs::Filesystem& fs() noexcept { return *fs_; }
  StackKind kind() const noexcept { return config_.kind; }
  const std::string& name() const noexcept { return config_.name; }
  const VolumeConfig& config() const noexcept { return config_; }

 private:
  VolumeConfig config_;
  sim::Simulator& sim_;
  std::unique_ptr<flash::StorageDevice> device_;
  std::unique_ptr<blk::BlockLayer> blk_;
  std::unique_ptr<fs::Filesystem> fs_;
};

/// Single-volume stack configuration: a volume whose name is usually left
/// empty (the root mount). Every per-figure experiment uses it.
using StackConfig = VolumeConfig;

/// Multi-volume node configuration: one simulator, N volumes.
struct NodeConfig {
  std::vector<VolumeConfig> volumes;

  /// A node of `bases.size()` volumes, renamed "v0", "v1", ...
  static NodeConfig from(std::vector<VolumeConfig> bases);
};

/// A host node: one shared simulator plus one or more volumes. The
/// simulator charges every wakeup of a simulated thread a 15 µs
/// context-switch latency (hardware actors opt out per thread). The
/// single-volume accessors (device()/blk()/fs()/kind()) delegate to volume
/// 0, so every existing per-device experiment keeps compiling; multi-volume
/// callers iterate volumes() or index volume(i).
class Stack {
 public:
  /// One-volume node (the historical constructor).
  explicit Stack(VolumeConfig config);
  /// Multi-volume node; requires at least one volume.
  explicit Stack(NodeConfig config);

  /// Starts every volume's device, block layer and filesystem threads.
  /// Call once.
  void start();

  sim::Simulator& sim() noexcept { return sim_; }

  std::size_t volume_count() const noexcept { return volumes_.size(); }
  Volume& volume(std::size_t i) noexcept { return *volumes_[i]; }
  const std::vector<std::unique_ptr<Volume>>& volumes() const noexcept {
    return volumes_;
  }

  // Single-volume accessors: volume 0 (the one-mount special case).
  flash::StorageDevice& device() noexcept { return volumes_[0]->device(); }
  blk::BlockLayer& blk() noexcept { return volumes_[0]->blk(); }
  fs::Filesystem& fs() noexcept { return volumes_[0]->fs(); }
  StackKind kind() const noexcept { return volumes_[0]->kind(); }

 private:
  sim::Simulator sim_;
  std::vector<std::unique_ptr<Volume>> volumes_;
};

}  // namespace bio::core
