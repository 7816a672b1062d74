// api::Ring — io_uring-style batched submission/completion rings over Vfs.
//
// A Ring decouples *issuing* IO from *waiting* for it: the application
// fills a submission queue with sqe-like ops (read/write and one op per
// sync syscall), submit() dispatches the batch as coroutines over the
// existing Vfs paths, and completions are reaped out of order from a
// cqe queue (wait_cqe), each carrying the sqe's user_data and a
// res that is pages-transferred (>= 0) or a negated errno.
//
// Link flags encode the paper's order-preserving dispatch at the host API:
// a sqe carrying kSqeLink serializes with the NEXT sqe of the same submit
// batch (IOSQE_IO_LINK), so `write -> fdatabarrier -> write` forms a chain
// that runs strictly in order *within* itself while unlinked sqes — and
// other chains — run concurrently. A failed sqe (validation or runtime
// error) cancels the remainder of its chain with -ECANCELED.
//
// Validation fails fast at submit time: a bad fd, an unregistered buffer
// index, or a barrier op against a journal that cannot run it (the
// capability matrix behind Vfs::sync) produces an error cqe for that sqe —
// never a mid-flight assert — and cancels its chain successors.
//
// Fixed buffers: register_buffers() carves numbered slots once, on a
// quiescent ring (no sqe between submit and cqe), as with io_uring buffer
// registration, and data sqes reference a slot index instead of carrying
// a buffer. Submit-time validation checks that the slot exists and holds
// the op's pages; in-flight ops may share a slot, since the simulation
// moves no bytes.
//
// Destruction with ops still in flight is safe: drivers share the ring
// state through a shared_ptr and check a closed flag after every
// suspension, so late completions touch neither the dead Ring nor its cq.
// The underlying Vfs must outlive the IO it was asked to perform, exactly
// as for direct syscalls.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "api/vfs.h"
#include "sim/reuse.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bio::api {

enum class RingOp : std::uint8_t {
  kNop,
  kRead,
  kWrite,
  kFsync,
  kFdatasync,
  kFbarrier,
  kFdatabarrier,
  kOsync,
  kDsync,
};

/// Sqe flag: serialize this sqe before the NEXT sqe in the batch
/// (IOSQE_IO_LINK). Chains end at the first sqe without the flag.
inline constexpr std::uint8_t kSqeLink = 0x1;

/// Submission-queue entry. `page`/`npages` are 4 KiB-page offset/length for
/// data ops (ignored by syncs); `buf_index` >= 0 names the registered buffer
/// slot the data op uses (-1 = unregistered IO). `user_data` is echoed
/// verbatim in the completion.
struct Sqe {
  RingOp op = RingOp::kNop;
  Fd fd = kInvalidFd;
  std::uint32_t page = 0;
  std::uint32_t npages = 0;
  std::int32_t buf_index = -1;
  std::uint8_t flags = 0;
  std::uint64_t user_data = 0;
};

/// Completion-queue entry: res >= 0 is pages transferred (0 for syncs and
/// nops), res < 0 a negated errno (kECanceled for chain cancellation).
struct Cqe {
  std::uint64_t user_data = 0;
  std::int32_t res = 0;
};

/// Negated-errno completion codes (POSIX numbering, like io_uring cqes).
std::int32_t negated_errno(Errno e);

/// The ring op that carries a policy-resolved sync syscall: every sync
/// syscall has its own op (execution runs it through Vfs::sync), and
/// kNone resolves to kNop.
RingOp ring_op_for(Syscall call) noexcept;
inline constexpr std::int32_t kECanceled = -125;  // chain predecessor failed

class Ring {
 public:
  /// Submission-queue capacity: push() refuses beyond this.
  static constexpr std::uint32_t kSqEntries = 64;

  /// Observer hooks, invoked synchronously in driver context immediately
  /// before a (validated) sqe is issued to the Vfs and immediately after
  /// its completion is queued. They must not suspend; the crash-sweep
  /// workload uses them for exact-tick trace stamping.
  using StartHook = std::function<void(const Sqe&)>;
  using CompleteHook = std::function<void(const Sqe&, std::int32_t res)>;

  explicit Ring(Vfs& vfs);
  ~Ring();

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  // ---- submission --------------------------------------------------------

  /// Queues one sqe; false when the submission queue is full.
  bool push(const Sqe& sqe);

  /// Validates and dispatches up to `n` queued sqes (default: all).
  /// Chains (kSqeLink runs) are dispatched as one serialized driver each;
  /// everything else runs concurrently. A chain is never split across
  /// submit calls: if `n` lands mid-chain the whole chain is taken.
  /// Returns the number of sqes dispatched.
  std::uint32_t submit(std::uint32_t n = ~std::uint32_t{0});

  // ---- completion --------------------------------------------------------

  /// Blocks the calling simulated thread until a completion is available.
  sim::TaskOf<Cqe> wait_cqe();

  std::size_t cq_ready() const noexcept;
  /// Sqes dispatched whose completion has not yet been queued.
  std::uint32_t in_flight() const noexcept;

  // ---- fixed buffers -----------------------------------------------------

  /// Registers `pages_per_buffer.size()` buffer slots, slot i holding
  /// pages_per_buffer[i] pages. kInval while buffers are registered
  /// already, while any sqe is in flight, or for an empty/zero-page table.
  Status register_buffers(const std::vector<std::uint32_t>& pages_per_buffer);

  // ---- observation -------------------------------------------------------

  void set_on_op_start(StartHook hook);
  void set_on_op_complete(CompleteHook hook);

  /// TEST ONLY: dispatch every sqe of a chain concurrently, ignoring link
  /// flags — the deliberate ordering bug the crash-sweep oracle must catch
  /// (negative test for the linked-chain contract).
  void set_ignore_links_for_test(bool ignore) noexcept;

 private:
  /// One validated submission: the sqe plus its submit-time verdict.
  struct Prepped {
    Sqe sqe;
    Errno precheck = Errno::kOk;
  };

  using Chain = std::vector<Prepped>;

  /// State shared between the Ring handle and its in-flight drivers. The
  /// drivers own it jointly with the Ring (shared_ptr), so destroying the
  /// Ring mid-flight leaves them a live object whose `closed` flag tells
  /// them to finish silently.
  struct Core {
    Core(Vfs& v, sim::Simulator& s) : vfs(&v), sim(&s), cq_ready(s) {}
    Vfs* vfs;
    sim::Simulator* sim;
    sim::FlatQueue<Cqe> cq;
    sim::Notify cq_ready;
    /// Emptied chains of finished drivers, refilled by submit().
    std::vector<Chain> spare_chains;
    /// Pages per registered buffer slot.
    std::vector<std::uint32_t> buffer_pages;
    std::uint32_t in_flight = 0;
    bool closed = false;
    StartHook on_op_start;
    CompleteHook on_op_complete;
  };

  /// Submit-time validation of one sqe (fail fast, satellite contract).
  Errno precheck(const Sqe& sqe) const;

  /// Runs `chain` in order, then hands its emptied vector back to
  /// core->spare_chains.
  static sim::Task chain_driver(std::shared_ptr<Core> core, Chain chain);
  static sim::TaskOf<std::int32_t> execute(Core& core, const Sqe& sqe);
  static void complete(Core& core, const Sqe& sqe, std::int32_t res);

  std::shared_ptr<Core> core_;
  sim::FlatQueue<Sqe> sq_;
  bool ignore_links_ = false;
};

}  // namespace bio::api
