// sysbench OLTP-insert model over a MySQL/InnoDB-like IO pattern (§6.5).
//
// Per transaction:
//   1. append one redo-log page     -> durability sync on the redo log
//   2. append binlog entry          -> durability sync on the binlog
//   3. dirty B-tree pages in the buffer pool (random overwrites)
// Every `checkpoint_every` transactions the table file is synced (fuzzy
// checkpoint). On OptFS the checkpoint's overwrite pages are selectively
// data-journaled, which is what makes OptFS collapse on this workload.
#pragma once

#include <cstdint>

#include "core/stack.h"
#include "sim/rng.h"

namespace bio::wl {

struct OltpParams {
  std::uint32_t threads = 8;
  std::uint64_t transactions_per_thread = 100;
  std::uint32_t table_pages = 8192;
  std::uint32_t rows_pages_per_tx = 3;  // dirty table pages per insert
  std::uint32_t checkpoint_every = 16;
};

struct OltpResult {
  double tx_per_sec = 0.0;
  std::uint64_t tx_done = 0;
  sim::SimTime elapsed = 0;
};

OltpResult run_oltp_insert(core::Stack& stack, const OltpParams& params,
                           sim::Rng rng);

}  // namespace bio::wl
