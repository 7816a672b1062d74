// Block-layer request types (§3.1).
//
// The order-preserving block layer distinguishes three kinds of writes:
//   * orderless        — neither flag; schedulable across epochs,
//   * order-preserving — REQ_ORDERED; free to reorder *within* its epoch,
//   * barrier          — REQ_ORDERED|REQ_BARRIER; delimits an epoch.
//
// Every request comes from a blk::RequestPool, which recycles it: the
// completion event and the device-facing Command are embedded (no
// per-request Event or per-dispatch Command allocation), and the block
// payload lives in a small-buffer BlockList whose heap fallback keeps its
// capacity across reuses.
//
// Merges are flat. A carrier's `absorbed` list holds every request merged
// into it, including those a front-merged carrier had absorbed before, in
// the order the merges built (blk::absorb). A merged request spans at most
// kMaxMergedBlocks blocks, so a carrier holds at most 127 absorbed requests.
#pragma once

#include <array>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "flash/command.h"
#include "flash/types.h"
#include "sim/check.h"
#include "sim/reuse.h"
#include "sim/sync.h"

namespace bio::blk {

enum class ReqOp : std::uint8_t { kWrite, kRead, kFlush };

/// One 4 KiB payload block: (LBA, version tag).
using Block = std::pair<flash::Lba, flash::Version>;

/// Contiguous block run with inline storage for short requests (the common
/// case) and a capacity-retaining heap fallback for merged ones.
class BlockList {
 public:
  static constexpr std::size_t kInlineBlocks = 4;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  const Block* data() const noexcept {
    return size_ <= kInlineBlocks ? inline_.data() : heap_.data();
  }
  Block* data() noexcept {
    return size_ <= kInlineBlocks ? inline_.data() : heap_.data();
  }

  const Block& operator[](std::size_t i) const noexcept { return data()[i]; }
  const Block& front() const noexcept { return data()[0]; }
  const Block& back() const noexcept { return data()[size_ - 1]; }
  const Block* begin() const noexcept { return data(); }
  const Block* end() const noexcept { return data() + size_; }

  void push_back(const Block& b) { append(&b, 1); }

  void append(const Block* p, std::size_t n) {
    if (size_ + n <= kInlineBlocks) {
      for (std::size_t i = 0; i < n; ++i) inline_[size_ + i] = p[i];
      size_ += n;
      return;
    }
    const std::size_t cap0 = heap_.capacity();
    if (size_ <= kInlineBlocks) {
      // Spill: move the inline prefix into the heap vector.
      heap_.clear();
      sim::reserve_reused(heap_, size_ + n);
      heap_.insert(heap_.end(), inline_.begin(), inline_.begin() + size_);
    }
    heap_.insert(heap_.end(), p, p + n);
    size_ += n;
    if (heap_.capacity() != cap0) ++heap_allocs_;
  }

  void assign(std::span<const Block> blocks) {
    clear();
    append(blocks.data(), blocks.size());
  }

  /// Keeps the heap capacity: a recycled request that once carried a merged
  /// 128-block run never reallocates for one again.
  void clear() noexcept {
    size_ = 0;
    heap_.clear();
  }

  /// Heap growth events since the last call (RequestPool allocation stats).
  std::uint32_t take_heap_allocs() noexcept {
    return std::exchange(heap_allocs_, 0u);
  }

 private:
  std::size_t size_ = 0;
  std::array<Block, kInlineBlocks> inline_;
  std::vector<Block> heap_;
  std::uint32_t heap_allocs_ = 0;
};

struct Request;
using RequestPtr = std::shared_ptr<Request>;

struct Request {
  explicit Request(sim::Simulator& sim) : completion(sim), device_done(sim) {}
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  ReqOp op = ReqOp::kWrite;
  /// REQ_ORDERED: order-preserving write.
  bool ordered = false;
  /// REQ_BARRIER: epoch delimiter (implies ordered).
  bool barrier = false;
  /// REQ_FLUSH: flush the device cache before this request.
  bool flush = false;
  /// REQ_FUA: persist the payload before completing.
  bool fua = false;

  /// Write payload, ascending contiguous LBAs.
  BlockList blocks;
  flash::Lba read_lba = 0;

  /// Cross-queue ordering epoch (multi-queue stacks only; see
  /// blk::EpochFence). Stamped by the owning queue's EpochScheduler at
  /// enqueue: barriers take the epoch they close, order-preserving writes
  /// the epoch they were issued under. Stays 0 on single-queue stacks.
  std::uint64_t fence_epoch = 0;

  /// Host completion IRQ (embedded; re-armed on recycle). Fires once the
  /// request is *finished* — for a fault-aware dispatch that includes the
  /// retry policy, so `status()` is the final verdict.
  sim::Event completion;
  /// Device-side IRQ used only by the fault-aware dispatch path: the device
  /// triggers it per attempt, the block layer's retry watcher re-arms it
  /// between attempts and forwards the final result to `completion`. With
  /// no fault plan installed the device triggers `completion` directly and
  /// this event stays cold.
  sim::Event device_done;
  /// Requests merged into this one, flat (see absorb()); their completions
  /// fire with ours.
  std::vector<RequestPtr> absorbed;
  /// Device-facing command, filled at dispatch. The block layer hands the
  /// device an aliasing shared_ptr to this member, so the request stays
  /// alive while the device holds the command.
  flash::Command cmd;

  flash::Lba first_lba() const {
    BIO_CHECK(!blocks.empty());
    return blocks.front().first;
  }
  flash::Lba last_lba() const {
    BIO_CHECK(!blocks.empty());
    return blocks.back().first;
  }
  bool is_write() const noexcept { return op == ReqOp::kWrite; }

  /// Final IO verdict, valid once `completion` fires. Absorbed requests
  /// inherit their carrier's status when the carrier completes.
  flash::IoStatus status() const noexcept { return cmd.status; }
  bool failed() const noexcept { return cmd.status != flash::IoStatus::kOk; }

  /// Scrubs per-use state while retaining container capacities (pool reuse).
  /// `absorbed` is already empty: the pool drains it before calling this.
  void reset_for_reuse() noexcept {
    op = ReqOp::kWrite;
    ordered = barrier = flush = fua = false;
    blocks.clear();
    read_lba = 0;
    fence_epoch = 0;
    completion.recycle();
    device_done.recycle();
    cmd = flash::Command{};
  }
};

/// The requests one sync call waits on: its own data runs plus foreign
/// writeback carriers it folds in. Like BlockList, the first kInline
/// entries live inline, so a list declared in a syscall's coroutine frame
/// (which the frame pool recycles) costs no heap; a longer list spills to
/// a heap vector.
class RequestList {
 public:
  static constexpr std::size_t kInline = 8;

  RequestList() = default;
  /// An empty list that spills into `storage`, keeping its capacity.
  explicit RequestList(std::vector<RequestPtr> storage)
      : heap_(std::move(storage)) {
    heap_.clear();
  }

  /// Empties the list and hands over its spill storage.
  std::vector<RequestPtr> take_storage() noexcept {
    for (RequestPtr& r : inline_) r.reset();
    size_ = 0;
    heap_.clear();
    return std::exchange(heap_, {});
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  const RequestPtr* begin() const noexcept { return data(); }
  const RequestPtr* end() const noexcept { return data() + size_; }

  void push_back(RequestPtr r) {
    if (size_ < kInline) {
      inline_[size_++] = std::move(r);
      return;
    }
    if (size_ == kInline) {
      // Spill: move the inline prefix into the heap vector.
      heap_.reserve(2 * kInline);
      for (RequestPtr& x : inline_) heap_.push_back(std::move(x));
    }
    heap_.push_back(std::move(r));
    ++size_;
  }

 private:
  const RequestPtr* data() const noexcept {
    return size_ <= kInline ? inline_.data() : heap_.data();
  }

  std::size_t size_ = 0;
  std::array<RequestPtr, kInline> inline_;
  std::vector<RequestPtr> heap_;
};

/// Merges `r` into `carrier`: appends `r`, then moves in the requests `r`
/// had absorbed, so every list stays flat and in merge-tree preorder (a
/// front-merge absorbs a carrier that may already hold requests). Nothing
/// else adds to Request::absorbed; only the pool's release empties it.
inline void absorb(Request& carrier, RequestPtr r) {
  std::vector<RequestPtr>& inner = r->absorbed;
  carrier.absorbed.push_back(std::move(r));
  carrier.absorbed.insert(carrier.absorbed.end(),
                          std::make_move_iterator(inner.begin()),
                          std::make_move_iterator(inner.end()));
  inner.clear();
}

/// Fires the completion of every request absorbed into `r`, in merge
/// preorder. The dispatcher calls this when the carrying request completes.
inline void trigger_absorbed(Request& r) {
  // Absorbed requests completed with the carrier, so they share its fate:
  // a failed carrier fails every write folded into it.
  for (const RequestPtr& a : r.absorbed) {
    a->cmd.status = r.cmd.status;
    a->completion.trigger();
  }
}

}  // namespace bio::blk
