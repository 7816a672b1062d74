// Single-threaded discrete-event simulator driving sim::Task coroutines.
//
// Simulated threads are spawned with Simulator::spawn(); they advance
// simulated time by awaiting Simulator::delay() (modelling computation or
// device busy time) and block on synchronization primitives (sim/sync.h)
// which model sleeping. A thread that blocks and is later woken incurs a
// *context switch*: the wake is delayed by Params::wake_latency and the
// thread's ThreadCtx::context_switches counter is incremented. This mirrors
// how the paper counts "application level context switches" (Fig 11).
//
// Pending resumes live in two places. A resume due at a later instant goes
// into a min-heap on (at, seq); one due at the current instant (yield(), a
// zero-latency wake, a spawn) goes into a FIFO ready queue instead. The loop
// first runs the heap's entries due now, which were pushed at an earlier
// instant and so carry the lower seq, then the ready queue in order, and
// only then advances time through the heap: exactly the (at, seq) order of
// one heap, without sifting the half of all resumes that are due at once.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/check.h"
#include "sim/task.h"
#include "sim/time.h"

namespace bio::sim {

class Simulator;
struct ThreadCtx;

/// The one waiter list: every blocking primitive (sim/sync.h) and join()
/// parks here. A FIFO of (coroutine, thread) copies, woken oldest-first
/// through Simulator::schedule_wakeup. Together with the event loop's
/// same-instant order (see the top of this file) it decides which of
/// several same-instant waiters resumes first. A vector, not a deque: it
/// keeps its capacity across park/wake cycles, so a warm queue allocates
/// nothing, and the few waiters a queue holds make wake_one's front erase
/// cheap.
class WaitQueue {
 public:
  bool empty() const noexcept { return waiters_.empty(); }
  std::size_t size() const noexcept { return waiters_.size(); }

  /// Parks `h`, running on `sim`'s current thread, and counts a block.
  void park(Simulator& sim, std::coroutine_handle<> h);
  /// Wakes every parked waiter, oldest first.
  void wake_all(Simulator& sim);
  /// Wakes the oldest parked waiter. Returns false if there was none.
  bool wake_one(Simulator& sim);
  /// Forgets every parked waiter without waking it.
  void clear() noexcept { waiters_.clear(); }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    ThreadCtx* thread;
  };
  std::vector<Waiter> waiters_;
};

/// Bookkeeping for one simulated thread (one top-level Task). Contexts come
/// from a per-Simulator pool: spawn() hands one out behind a sim::Thread
/// handle, and the Simulator takes it back for a later spawn once its task
/// has finished and no handle pins it.
struct ThreadCtx {
  std::string name;
  /// Spawn ordinal, unique within one Simulator (0, 1, 2, ... in spawn
  /// order) even when the context is a recycled one. Deterministic for a
  /// given workload, so per-context consumers (the multi-queue block
  /// layer's software-queue routing) can key on it.
  std::uint64_t id = 0;
  /// Number of times this thread blocked on a primitive and was woken.
  std::uint64_t context_switches = 0;
  /// Number of times this thread entered a blocked state.
  std::uint64_t blocks = 0;
  bool finished = false;
  /// Overrides Params::wake_latency for this thread. Hardware actors
  /// (storage controller state machines) set this to 0: they are not
  /// scheduled by the host OS.
  std::optional<SimTime> wake_latency;
  /// Threads blocked in join() on this one.
  WaitQueue joiners;

 private:
  friend class Simulator;
  friend class Thread;
  Simulator* sim_ = nullptr;
  /// The top-level frame while the task runs (teardown destroys it).
  std::coroutine_handle<> frame_;
  /// Live Thread handles.
  std::uint32_t pins_ = 0;
  /// Next context on the Simulator's free list.
  ThreadCtx* next_free_ = nullptr;
};

/// Copyable handle to one spawned simulated thread. It pins the thread's
/// context: while any handle lives, `finished` and the counters stay
/// readable and join() works, even long after the task finished. Handles
/// may be discarded freely (most spawns do) and must not outlive their
/// Simulator.
class Thread {
 public:
  Thread() = default;
  Thread(const Thread& other) noexcept : ctx_(other.ctx_) {
    if (ctx_ != nullptr) ++ctx_->pins_;
  }
  Thread(Thread&& other) noexcept : ctx_(std::exchange(other.ctx_, nullptr)) {}
  Thread& operator=(Thread other) noexcept {
    std::swap(ctx_, other.ctx_);
    return *this;
  }
  ~Thread();

  ThreadCtx& operator*() const noexcept { return *ctx_; }
  ThreadCtx* operator->() const noexcept { return ctx_; }

 private:
  friend class Simulator;
  explicit Thread(ThreadCtx& ctx) noexcept : ctx_(&ctx) { ++ctx.pins_; }
  ThreadCtx* ctx_ = nullptr;
};

class Simulator {
 public:
  struct Params {
    /// Scheduler latency charged whenever a blocked thread is woken.
    SimTime wake_latency = 0;
  };

  Simulator() : Simulator(Params{}) {}
  explicit Simulator(Params params) : params_(params) {}
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }
  const Params& params() const noexcept { return params_; }

  /// Starts `task` as a new simulated thread named `name`. The thread's
  /// first instruction runs at the current simulated time (after already
  /// pending events at that time). Allocates nothing once the context and
  /// frame pools cover the peak number of live threads.
  Thread spawn(std::string name, Task task);

  /// Runs until the event queue drains or stop() is called. Rethrows the
  /// first exception that escaped any simulated thread.
  void run();

  /// Processes all events with timestamp <= `t`, then sets now() = t unless
  /// stop() left some of them pending. Dispatches nothing if t < now().
  void run_until(SimTime t);

  /// Makes run()/run_until() return after the current event completes; the
  /// rest stay pending, and the next run resumes them in order.
  void stop() noexcept { stopped_ = true; }

  bool has_pending_events() const noexcept {
    return !queue_.empty() || !ready_.empty();
  }

  // ---- awaitables -------------------------------------------------------

  struct DelayAwaiter {
    Simulator& sim;
    SimTime duration;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      sim.schedule_resume(sim.now_ + duration, h, sim.current_, false);
    }
    void await_resume() const noexcept {}
  };

  /// Advances this simulated thread's clock by `d` (models CPU work or a
  /// synchronous device wait that does NOT count as a context switch).
  DelayAwaiter delay(SimTime d) noexcept { return DelayAwaiter{*this, d}; }

  /// Lets other runnable activities at the same timestamp proceed.
  DelayAwaiter yield() noexcept { return DelayAwaiter{*this, 0}; }

  struct JoinAwaiter {
    Simulator& sim;
    ThreadCtx& target;
    bool await_ready() const noexcept { return target.finished; }
    void await_suspend(std::coroutine_handle<> h) const {
      target.joiners.park(sim, h);
    }
    void await_resume() const noexcept {}
  };

  /// Blocks the calling simulated thread until `target` finishes; returns
  /// at once if it already has.
  JoinAwaiter join(const Thread& target) noexcept {
    return JoinAwaiter{*this, *target};
  }

  // ---- scheduling internals (used by WaitQueue and Task) ----------------

  /// Schedules `h` to resume at absolute time `at` on thread `thr`.
  /// `is_wakeup` marks the resume as the end of a blocking wait.
  void schedule_resume(SimTime at, std::coroutine_handle<> h, ThreadCtx* thr,
                       bool is_wakeup);

  /// Schedules `h` to resume after the woken thread's wake latency and
  /// counts a context switch for it.
  void schedule_wakeup(std::coroutine_handle<> h, ThreadCtx* thr) {
    const SimTime latency = thr != nullptr && thr->wake_latency.has_value()
                                ? *thr->wake_latency
                                : params_.wake_latency;
    schedule_resume(now_ + latency, h, thr, true);
  }

  /// The simulated thread currently executing, or nullptr outside run().
  ThreadCtx* current_thread() const noexcept { return current_; }

  /// Called from Task::FinalAwaiter when a top-level task finishes.
  void on_top_level_done(ThreadCtx* thr, std::exception_ptr error);

  /// Total events (coroutine resumes) the loop has dispatched — the
  /// denominator for events/sec in the perf suite.
  std::uint64_t events_dispatched() const noexcept {
    return events_dispatched_;
  }

 private:
  /// The one event kind: a coroutine resume, as a 32-byte POD heap entry.
  struct Scheduled {
    SimTime at;
    std::uint64_t seq;
    /// Coroutine frame address.
    void* frame;
    /// ThreadCtx* with the wakeup flag in bit 0 (ThreadCtx is
    /// pointer-aligned, so bit 0 of its address is free).
    std::uintptr_t aux;
  };
  static constexpr std::uintptr_t kWakeupBit = 1;

  /// Min-heap on (at, seq) over a flat vector of POD entries. Hand-rolled so
  /// pop moves 32-byte PODs into a hole instead of running a comparator
  /// functor through std::priority_queue's generic machinery.
  class EventHeap {
   public:
    bool empty() const noexcept { return v_.empty(); }
    std::size_t size() const noexcept { return v_.size(); }
    const Scheduled& top() const noexcept { return v_.front(); }
    void clear() noexcept { v_.clear(); }

    void push(const Scheduled& ev) {
      v_.push_back(ev);
      std::size_t i = v_.size() - 1;
      while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(v_[i], v_[parent])) break;
        std::swap(v_[i], v_[parent]);
        i = parent;
      }
    }

    Scheduled pop() {
      Scheduled out = v_.front();
      Scheduled last = v_.back();
      v_.pop_back();
      if (!v_.empty()) {
        // Sift the hole down, then drop `last` in.
        std::size_t i = 0;
        const std::size_t n = v_.size();
        for (;;) {
          std::size_t child = 2 * i + 1;
          if (child >= n) break;
          if (child + 1 < n && before(v_[child + 1], v_[child])) ++child;
          if (!before(v_[child], last)) break;
          v_[i] = v_[child];
          i = child;
        }
        v_[i] = last;
      }
      return out;
    }

   private:
    static bool before(const Scheduled& a, const Scheduled& b) noexcept {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
    std::vector<Scheduled> v_;
  };

  /// FIFO of the resumes scheduled for the current instant, as (frame, aux)
  /// pairs in a power-of-two ring with free-running indices. It doubles
  /// when full and otherwise keeps its capacity, so a warm run allocates
  /// nothing per event.
  class ReadyQueue {
   public:
    struct Entry {
      void* frame;
      std::uintptr_t aux;
    };
    bool empty() const noexcept { return head_ == tail_; }
    void clear() noexcept { head_ = tail_ = 0; }

    void push(const Entry& e) {
      if (tail_ - head_ == ring_.size()) grow();
      ring_[tail_++ & mask_] = e;
    }

    Entry pop() noexcept { return ring_[head_++ & mask_]; }

   private:
    /// Called only when full: unwraps the ring, then doubles it.
    void grow() {
      std::rotate(ring_.begin(), ring_.begin() + (head_ & mask_), ring_.end());
      tail_ -= head_;
      head_ = 0;
      ring_.resize(ring_.empty() ? 64 : 2 * ring_.size());
      mask_ = ring_.size() - 1;
    }
    std::vector<Entry> ring_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    std::size_t mask_ = 0;
  };

  /// Dispatches the next resume due at or before `t` in (at, seq) order;
  /// false if there is none. Requires now() <= t.
  bool dispatch_next(SimTime t);
  void resume(void* frame, std::uintptr_t aux);
  friend class Thread;
  /// Returns a finished, unpinned context to the free list.
  void recycle(ThreadCtx& ctx) noexcept {
    ctx.next_free_ = free_contexts_;
    free_contexts_ = &ctx;
  }

  Params params_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_dispatched_ = 0;
  bool stopped_ = false;
  /// Resumes scheduled before the instant they are due at.
  EventHeap queue_;
  /// Resumes due now, scheduled during this instant.
  ReadyQueue ready_;
  ThreadCtx* current_ = nullptr;
  /// Context pool: as many contexts as were ever live or pinned at once
  /// (a deque, so addresses stay stable as it grows); the recycled ones are
  /// chained through ThreadCtx::next_free_.
  std::deque<ThreadCtx> contexts_;
  ThreadCtx* free_contexts_ = nullptr;
  std::uint64_t next_thread_id_ = 0;
  std::exception_ptr failure_;
};

inline void WaitQueue::park(Simulator& sim, std::coroutine_handle<> h) {
  ThreadCtx* cur = sim.current_thread();
  if (cur != nullptr) ++cur->blocks;
  waiters_.push_back({h, cur});
}

inline void WaitQueue::wake_all(Simulator& sim) {
  for (const Waiter& w : waiters_) sim.schedule_wakeup(w.handle, w.thread);
  waiters_.clear();
}

inline bool WaitQueue::wake_one(Simulator& sim) {
  if (waiters_.empty()) return false;
  const Waiter w = waiters_.front();
  waiters_.erase(waiters_.begin());
  sim.schedule_wakeup(w.handle, w.thread);
  return true;
}

inline Thread::~Thread() {
  if (ctx_ != nullptr && --ctx_->pins_ == 0 && ctx_->finished)
    ctx_->sim_->recycle(*ctx_);
}

}  // namespace bio::sim
