#include "sim/frame_pool.h"

#include <cstdlib>
#include <new>
#include <vector>

namespace bio::sim {

namespace {

// 64-byte size classes up to 8 KiB; anything larger goes straight to the
// heap. Each class keeps at most kMaxPerClass parked frames so a one-off
// burst (e.g. ten thousand concurrent fsync frames) cannot pin memory
// forever.
constexpr std::size_t kClassShift = 6;
constexpr std::size_t kClassSize = std::size_t{1} << kClassShift;
constexpr std::size_t kNumClasses = 128;  // 128 * 64 B = 8 KiB
constexpr std::size_t kMaxPerClass = 1024;
// Frames get a 16-byte header recording their size class, so plain
// operator delete-style frees (no size argument) can find the bucket.
// 16 bytes keeps the returned pointer aligned for coroutine frames.
constexpr std::size_t kHeader = 16;

struct Pool {
  std::vector<void*> free_lists[kNumClasses];
  FramePoolStats stats;

  ~Pool() {
    for (auto& list : free_lists)
      for (void* p : list) std::free(p);
  }
};

Pool& pool() {
  thread_local Pool p;
  return p;
}

}  // namespace

const FramePoolStats& frame_pool_stats() noexcept { return pool().stats; }

namespace detail {

void* frame_alloc(std::size_t n) {
  Pool& p = pool();
  ++p.stats.allocs;
  const std::size_t klass = (n + kHeader + kClassSize - 1) >> kClassShift;
  if (klass < kNumClasses && !p.free_lists[klass].empty()) {
    ++p.stats.reuses;
    void* raw = p.free_lists[klass].back();
    p.free_lists[klass].pop_back();
    return static_cast<char*>(raw) + kHeader;
  }
  ++p.stats.fresh;
  const std::size_t bytes =
      klass < kNumClasses ? klass << kClassShift : n + kHeader;
  void* raw = std::malloc(bytes);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = klass;
  return static_cast<char*>(raw) + kHeader;
}

void frame_free(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  const std::size_t klass = *static_cast<std::size_t*>(raw);
  Pool& pl = pool();
  if (klass < kNumClasses && pl.free_lists[klass].size() < kMaxPerClass) {
    pl.free_lists[klass].push_back(raw);
    return;
  }
  std::free(raw);
}

}  // namespace detail

}  // namespace bio::sim
