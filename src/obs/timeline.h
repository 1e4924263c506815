// Periodic counter sampling: per-SM time series over the cumulative SmStats
// counters plus a handful of occupancy gauges, rendered as CSV.
//
// The GPU loop (gpu/gpu.cc) calls sample() at every multiple of the
// configured interval with counter values *as they stand at that boundary*,
// read through StreamingMultiprocessor::stats(boundary), which counts each
// open warp-state and scheduler interval through the boundary: an SM that
// sleeps through it holds the states of its last scan (the accounting that
// makes end-of-run stats bit-identical across modes). Boundaries inside a
// skipped window are emitted as catch-up samples — so the CSV is
// byte-identical across cycle/event exec modes and across --threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace grs::obs {

/// One SM's cumulative counters + instantaneous gauges at a sample boundary.
struct SmTimelinePoint {
  SmStats stats;                      ///< cumulative, L1 counters included
  std::uint32_t resident_blocks = 0;  ///< gauges at the boundary
  std::uint32_t resident_warps = 0;
  std::uint32_t mshr_inflight = 0;    ///< L1 MSHR occupancy
};

/// Shared-memory-system counters + gauges at a sample boundary.
struct GpuTimelinePoint {
  std::uint64_t l2_accesses = 0;  ///< cumulative
  std::uint64_t l2_misses = 0;
  std::uint64_t dram_requests = 0;
  std::uint64_t dram_row_hits = 0;
  std::uint32_t l2_busy_banks = 0;    ///< gauges: banks still occupied
  std::uint32_t dram_busy_banks = 0;
};

/// Accumulates samples and renders the CSV (docs/observability.md lists the
/// columns). Per boundary: one row per SM (window deltas + gauges) and one
/// "gpu" row (SM sums + L2/DRAM columns, which per-SM rows leave empty).
class TimelineSampler {
 public:
  explicit TimelineSampler(Cycle interval) : interval_(interval) {}

  void sample(Cycle boundary, const std::vector<SmTimelinePoint>& sms,
              const GpuTimelinePoint& gpu);

  /// Header + every row so far (trailing newline included).
  [[nodiscard]] std::string csv() const;

 private:
  Cycle interval_;
  std::string rows_;
  std::vector<SmTimelinePoint> prev_sms_;  ///< cumulative values at the last boundary
  GpuTimelinePoint prev_gpu_;
};

}  // namespace grs::obs
