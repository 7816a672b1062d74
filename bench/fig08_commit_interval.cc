// Fig 8: the interval between successive journal commits under the four
// commit disciplines:
//   EXT4 (full flush)  — tD + tC + tF   (transfer + full flush per commit)
//   EXT4 (quick flush) — tD + tC + te   (supercap: flush is a short ack)
//   EXT4 (no flush)    — tD + tC        (nobarrier: transfer-bound)
//   BarrierFS          — tD             (dispatch-bound, commits pipeline)
// We drive a stream of journal commits (one per write, allocating append +
// ordering sync) and report the average inter-commit interval.
#include "bench_util.h"
#include "wl/random_write.h"

using namespace bio;
using bench::make_stack;

namespace {

double commit_interval_ms(core::Stack& stack, std::uint64_t ops,
                          bool ordering_only) {
  wl::RandomWriteParams p;
  // Allocating appends: every op dirties i_size, so every op commits a
  // journal transaction. 8 files avoid buffer conflicts between
  // back-to-back commits, letting pipelining show.
  p.mode = ordering_only ? wl::RandomWriteParams::Mode::kFdatabarrier
                         : wl::RandomWriteParams::Mode::kFdatasync;
  p.allocating = true;
  p.files = 8;
  p.ops = ops;
  auto r = wl::run_random_write(stack, p, sim::Rng(8));
  // Per-transaction commit interval. For the EXT4 rows every op is exactly
  // one journal commit (the caller waits); for BarrierFS the commit thread
  // batches ops into pipelined transactions, so the per-op interval is the
  // honest measure of how often transaction commits can be initiated.
  if (r.ops_done == 0) return 0.0;
  return sim::to_millis(r.elapsed) / static_cast<double>(r.ops_done);
}

}  // namespace

int main() {
  bench::banner("Fig 8", "journal commit interval by commit discipline");

  // One cell per discipline, each building its own stack so the four
  // simulations can run on separate host threads.
  struct Case {
    core::StackKind kind;
    bool supercap;
    std::uint64_t ops;
    bool ordering_only;
  };
  const Case cases[] = {
      {core::StackKind::kExt4DR, false, 200, false},
      {core::StackKind::kExt4DR, true, 800, false},
      {core::StackKind::kExt4OD, false, 800, false},
      // BFS-OD: fdatabarrier on allocating writes -> pipelined commits.
      {core::StackKind::kBfsOD, false, 4000, true},
  };
  const std::vector<double> intervals =
      bench::run_cells<double>(4, [&cases](int i) {
        const Case& c = cases[i];
        auto stack = make_stack(c.kind, c.supercap
                                            ? flash::DeviceProfile::supercap_ssd()
                                            : flash::DeviceProfile::plain_ssd());
        return commit_interval_ms(*stack, c.ops, c.ordering_only);
      });
  const double t_full = intervals[0];
  const double t_quick = intervals[1];
  const double t_noflush = intervals[2];
  const double t_bfs = intervals[3];

  core::Table t({"discipline", "commit interval (ms)", "paper's bound"});
  t.add_row({"EXT4 (full flush)", core::Table::num(t_full, 3),
             "tD + tC + tF"});
  t.add_row({"EXT4 (quick flush/supercap)", core::Table::num(t_quick, 3),
             "tD + tC + te"});
  t.add_row({"EXT4 (no flush)", core::Table::num(t_noflush, 3), "tD + tC"});
  t.add_row({"BarrierFS", core::Table::num(t_bfs, 3), "tD"});
  t.print();

  bench::expect_shape(t_bfs < t_noflush,
                      "BarrierFS commits faster than transfer-bound EXT4");
  bench::expect_shape(t_noflush < t_quick || t_noflush < t_full,
                      "removing the flush shortens the commit interval");
  bench::expect_shape(t_quick < t_full,
                      "supercap flush (te) is far cheaper than full flush "
                      "(tF)");
  return 0;
}
