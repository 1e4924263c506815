// Simulation statistics: per-SM counters and whole-GPU aggregates.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace grs {

/// Counters collected by one SM during a simulation.
struct SmStats {
  // Scheduler-cycle accounting. Each of the SM's schedulers classifies every
  // cycle as exactly one of {issued, stall, idle}, from the states its scan
  // found its warps in (kStateAccounting in sm/sm.cc, docs/observability.md):
  //   issued — a warp instruction was issued;
  //   stall  — >=1 warp had a ready instruction but a pipeline/structural
  //            hazard (LSU port/queue, MSHR, SFU port) prevented issue
  //            (paper: "pipeline stall");
  //   idle   — no warp was ready: all waiting on in-flight results, sharing
  //            locks, the Dyn gate, barriers, or no warps resident (paper:
  //            "no warp is ready to execute").
  std::uint64_t issued_cycles = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t idle_cycles = 0;

  std::uint64_t warp_instructions = 0;    ///< warp-level instructions issued
  std::uint64_t thread_instructions = 0;  ///< sum of active lanes over issues

  std::uint64_t blocks_launched = 0;
  std::uint64_t blocks_finished = 0;
  std::uint32_t max_resident_blocks = 0;
  std::uint32_t max_resident_warps = 0;

  // Sharing runtime events.
  std::uint64_t lock_acquisitions = 0;     ///< shared-resource locks granted
  std::uint64_t lock_wait_cycles = 0;      ///< warp-cycles spent lock-blocked
  std::uint64_t ownership_transfers = 0;
  std::uint64_t dyn_throttled_issues = 0;  ///< issues suppressed by Dyn

  // L1 data cache.
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l1_mshr_merges = 0;

  // Stall-cause breakdown (warp-cycles; a warp blocked for a reason adds one
  // count per cycle it is scanned). Diagnostic, not part of the paper.
  std::uint64_t blocked_lsu_port = 0;
  std::uint64_t blocked_lsu_inflight = 0;
  std::uint64_t blocked_mshr = 0;
  std::uint64_t blocked_sfu_port = 0;
  std::uint64_t blocked_scoreboard = 0;
  std::uint64_t blocked_barrier = 0;

  void merge(const SmStats& o);

  [[nodiscard]] std::uint64_t scheduler_cycles() const {
    return issued_cycles + stall_cycles + idle_cycles;
  }
};

/// Field-wise equality (the cross-mode equivalence contract).
[[nodiscard]] bool operator==(const SmStats& a, const SmStats& b);
inline bool operator!=(const SmStats& a, const SmStats& b) { return !(a == b); }

/// Whole-GPU results for one kernel run.
struct GpuStats {
  Cycle cycles = 0;  ///< total GPU cycles to drain the grid
  SmStats sm_total;  ///< sum over SMs

  // L2 / DRAM (shared across SMs).
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t dram_requests = 0;
  std::uint64_t dram_row_hits = 0;

  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(sm_total.thread_instructions) /
                             static_cast<double>(cycles);
  }
  [[nodiscard]] double warp_ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(sm_total.warp_instructions) /
                             static_cast<double>(cycles);
  }
  [[nodiscard]] double l1_miss_rate() const {
    return sm_total.l1_accesses == 0 ? 0.0
                                     : static_cast<double>(sm_total.l1_misses) /
                                           static_cast<double>(sm_total.l1_accesses);
  }
  [[nodiscard]] double l2_miss_rate() const {
    return l2_accesses == 0 ? 0.0
                            : static_cast<double>(l2_misses) / static_cast<double>(l2_accesses);
  }

  /// Multi-line human-readable dump (used by examples).
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] bool operator==(const GpuStats& a, const GpuStats& b);
inline bool operator!=(const GpuStats& a, const GpuStats& b) { return !(a == b); }

/// Percentage change helpers used throughout the benches.
[[nodiscard]] double percent_improvement(double baseline, double value);
[[nodiscard]] double percent_decrease(double baseline, double value);

}  // namespace grs
