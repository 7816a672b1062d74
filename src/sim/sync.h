// Synchronization primitives for simulated threads.
//
// Waiting on any primitive here models *blocking*: the waiting thread is
// descheduled, and when woken it is charged the simulator's wake latency and
// one context switch (ThreadCtx::context_switches). Because the simulator
// is single-threaded and non-preemptive, the classic check-then-wait pattern
// has no lost-wakeup race. Every primitive parks its waiters on one
// sim::WaitQueue, which wakes them oldest-first.
#pragma once

#include <coroutine>
#include <cstdint>

#include "sim/check.h"
#include "sim/simulator.h"

namespace bio::sim {

/// One-shot completion event (e.g. "this DMA transfer finished").
/// wait() returns immediately once trigger() has been called; reset()
/// re-arms it. Multiple waiters are all woken by one trigger().
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(&sim) {}

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const noexcept { return set_; }

  void trigger() {
    if (set_) return;
    set_ = true;
    waiters_.wake_all(*sim_);
  }

  /// Re-arms a triggered event. Must not be called with waiters pending.
  void reset() {
    BIO_CHECK_MSG(waiters_.empty(), "Event::reset with pending waiters");
    set_ = false;
  }

  /// Re-arms unconditionally, discarding any registered waiters. Only for
  /// object recycling (blk::RequestPool) where the embedded event may be
  /// torn down mid-wait during simulator teardown — exactly as destroying
  /// a heap-allocated Event would have.
  void recycle() noexcept {
    waiters_.clear();
    set_ = false;
  }

  struct Awaiter {
    Event& event;
    bool await_ready() const noexcept { return event.set_; }
    void await_suspend(std::coroutine_handle<> h) const {
      event.waiters_.park(*event.sim_, h);
    }
    void await_resume() const noexcept {}
  };

  Awaiter wait() noexcept { return Awaiter{*this}; }

 private:
  Simulator* sim_;
  bool set_ = false;
  WaitQueue waiters_;
};

/// Counting semaphore with FIFO hand-off: release() passes the permit
/// directly to the oldest waiter, so a latecomer cannot barge in between
/// the release and the waiter's resume.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::uint64_t initial)
      : sim_(&sim), count_(initial) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::uint64_t available() const noexcept { return count_; }

  bool try_acquire() noexcept {
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  void release(std::uint64_t n = 1) {
    while (n > 0 && waiters_.wake_one(*sim_)) --n;
    count_ += n;
  }

  struct Awaiter {
    Semaphore& sem;
    bool await_ready() const noexcept { return sem.try_acquire(); }
    void await_suspend(std::coroutine_handle<> h) const {
      sem.waiters_.park(*sem.sim_, h);
    }
    void await_resume() const noexcept {}
  };

  Awaiter acquire() noexcept { return Awaiter{*this}; }

 private:
  Simulator* sim_;
  std::uint64_t count_;
  WaitQueue waiters_;
};

/// Condition-variable-like notifier: wait() always blocks until the *next*
/// notify_all(). Use with an explicit predicate loop.
class Notify {
 public:
  explicit Notify(Simulator& sim) : sim_(&sim) {}

  Notify(const Notify&) = delete;
  Notify& operator=(const Notify&) = delete;

  void notify_all() { waiters_.wake_all(*sim_); }

  std::size_t waiting() const noexcept { return waiters_.size(); }

  struct Awaiter {
    Notify& n;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      n.waiters_.park(*n.sim_, h);
    }
    void await_resume() const noexcept {}
  };

  Awaiter wait() noexcept { return Awaiter{*this}; }

 private:
  Simulator* sim_;
  WaitQueue waiters_;
};

}  // namespace bio::sim
