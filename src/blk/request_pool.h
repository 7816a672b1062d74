// Slab/freelist recycler for block-layer requests, and the only way to
// build one: the stack and the tests both take their requests from a pool.
//
// The ordered write path of the paper lives or dies on per-IO overhead, and
// the simulator's own hot path should too: the legacy path paid one
// make_shared, one heap-allocated completion Event (plus its deque chunk)
// and one blocks vector per request. The pool removes all of them:
//
//   * Request objects live in a std::deque slab (stable addresses, chunked
//     allocation) and recycle through a freelist without running their
//     destructors — vectors keep capacity, the embedded Event re-arms.
//   * shared_ptr control blocks recycle through a fixed-size freelist via a
//     custom allocator, so handing out a RequestPtr costs no malloc either.
//   * Block payloads land in the request's inline BlockList storage.
//
// The pool's internals are shared-ownership: every outstanding RequestPtr
// keeps the backing slabs alive, so teardown order (device, block layer,
// simulator frames) cannot dangle.
#pragma once

#include <cstddef>
#include <deque>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "blk/request.h"
#include "sim/simulator.h"

namespace bio::blk {

class RequestPool {
 public:
  struct Stats {
    /// Requests handed out.
    std::uint64_t acquired = 0;
    /// Served by recycling a previously released request.
    std::uint64_t recycled = 0;
    /// Heap events: new Request slots, new control-block chunks, BlockList
    /// spills that grew a heap buffer.
    std::uint64_t fresh_requests = 0;
    std::uint64_t ctrl_allocs = 0;
    std::uint64_t block_heap_allocs = 0;

    Stats& operator+=(const Stats& o) noexcept {
      acquired += o.acquired;
      recycled += o.recycled;
      fresh_requests += o.fresh_requests;
      ctrl_allocs += o.ctrl_allocs;
      block_heap_allocs += o.block_heap_allocs;
      return *this;
    }
    Stats& operator-=(const Stats& o) noexcept {
      acquired -= o.acquired;
      recycled -= o.recycled;
      fresh_requests -= o.fresh_requests;
      ctrl_allocs -= o.ctrl_allocs;
      block_heap_allocs -= o.block_heap_allocs;
      return *this;
    }

    /// Heap allocations per request handed out (→ 0 after warm-up; the
    /// legacy unpooled path paid ≥ 3 per request).
    double allocs_per_request() const noexcept {
      return acquired == 0
                 ? 0.0
                 : static_cast<double>(fresh_requests + ctrl_allocs +
                                       block_heap_allocs) /
                       static_cast<double>(acquired);
    }
  };

  explicit RequestPool(sim::Simulator& sim)
      : impl_(std::make_shared<Impl>(sim)) {}

  RequestPtr make_write(std::span<const Block> blocks, bool ordered = false,
                        bool barrier = false, bool flush = false,
                        bool fua = false) {
    BIO_CHECK_MSG(!blocks.empty(), "write request without blocks");
    for (std::size_t i = 1; i < blocks.size(); ++i)
      BIO_CHECK_MSG(blocks[i].first == blocks[i - 1].first + 1,
                    "write request blocks must be contiguous ascending");
    RequestPtr r = wrap(acquire());
    r->op = ReqOp::kWrite;
    r->ordered = ordered || barrier;  // barrier implies order-preserving
    r->barrier = barrier;
    r->flush = flush;
    r->fua = fua;
    r->blocks.assign(blocks);
    return r;
  }

  RequestPtr make_write(std::initializer_list<Block> blocks,
                        bool ordered = false, bool barrier = false,
                        bool flush = false, bool fua = false) {
    return make_write(std::span<const Block>(blocks.begin(), blocks.size()),
                      ordered, barrier, flush, fua);
  }

  RequestPtr make_read(flash::Lba lba) {
    RequestPtr r = wrap(acquire());
    r->op = ReqOp::kRead;
    r->read_lba = lba;
    return r;
  }

  RequestPtr make_flush() {
    RequestPtr r = wrap(acquire());
    r->op = ReqOp::kFlush;
    return r;
  }

  const Stats& stats() const noexcept { return impl_->stats; }
  /// Requests currently parked in the freelist.
  std::size_t free_count() const noexcept { return impl_->free_list.size(); }
  /// Requests ever constructed (slab size).
  std::size_t slab_size() const noexcept { return impl_->slab.size(); }

 private:
  struct Impl {
    explicit Impl(sim::Simulator& s) : sim(&s) {}
    ~Impl() {
      for (void* p : ctrl_free) ::operator delete(p);
    }
    Impl(const Impl&) = delete;
    Impl& operator=(const Impl&) = delete;

    sim::Simulator* sim;
    /// Slab of Request objects: deque chunks allocate in bulk and never
    /// move, so raw Request* stay valid for the pool's lifetime.
    std::deque<Request> slab;
    std::vector<Request*> free_list;
    /// Recycled shared_ptr control-block chunks (one fixed size in
    /// practice; anything else falls through to the heap).
    std::vector<void*> ctrl_free;
    std::size_t ctrl_size = 0;
    Stats stats;

    /// Parks the carrier, then drops its absorbed requests newest first;
    /// each one that was the last reference parks behind it. Merges are
    /// flat, so that re-entry finds an empty list and goes no deeper.
    void release(Request* r) {
      stats.block_heap_allocs += r->blocks.take_heap_allocs();
      free_list.push_back(r);
      while (!r->absorbed.empty()) r->absorbed.pop_back();
      r->reset_for_reuse();
    }
  };

  /// shared_ptr deleter: scrub and park instead of destroying. Holds the
  /// Impl alive, so outstanding requests never outlive their slab.
  struct Recycler {
    std::shared_ptr<Impl> impl;
    void operator()(Request* r) const { impl->release(r); }
  };

  /// Control-block allocator backed by the Impl's chunk freelist.
  template <typename T>
  struct CtrlAlloc {
    using value_type = T;

    explicit CtrlAlloc(std::shared_ptr<Impl> i) : impl(std::move(i)) {}
    template <typename U>
    CtrlAlloc(const CtrlAlloc<U>& other) : impl(other.impl) {}

    T* allocate(std::size_t n) {
      const std::size_t bytes = n * sizeof(T);
      if (bytes == impl->ctrl_size && !impl->ctrl_free.empty()) {
        void* p = impl->ctrl_free.back();
        impl->ctrl_free.pop_back();
        return static_cast<T*>(p);
      }
      if (impl->ctrl_size == 0) impl->ctrl_size = bytes;
      ++impl->stats.ctrl_allocs;
      return static_cast<T*>(::operator new(bytes));
    }

    void deallocate(T* p, std::size_t n) noexcept {
      if (n * sizeof(T) == impl->ctrl_size)
        impl->ctrl_free.push_back(p);
      else
        ::operator delete(p);
    }

    template <typename U>
    bool operator==(const CtrlAlloc<U>&) const noexcept {
      return true;
    }

    std::shared_ptr<Impl> impl;
  };

  Request* acquire() {
    Impl& im = *impl_;
    ++im.stats.acquired;
    Request* r;
    if (!im.free_list.empty()) {
      ++im.stats.recycled;
      r = im.free_list.back();
      im.free_list.pop_back();
    } else {
      ++im.stats.fresh_requests;
      im.slab.emplace_back(*im.sim);
      r = &im.slab.back();
    }
    return r;
  }

  RequestPtr wrap(Request* r) {
    return RequestPtr(r, Recycler{impl_}, CtrlAlloc<Request>(impl_));
  }

  std::shared_ptr<Impl> impl_;
};

}  // namespace bio::blk
