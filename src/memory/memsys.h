// The GPU-shared part of the memory hierarchy: banked L2 in front of DRAM.
//
// SMs present line-granular transactions (already coalesced and filtered by
// their private L1). Each L2 bank serializes accesses (queue modelled by a
// next-free cycle), merges in-flight misses per line, and forwards primary
// misses to DRAM.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "memory/cache.h"
#include "memory/dram.h"

namespace grs {

namespace obs {
class SimObserver;
}
namespace prof {
class HostProfiler;
}

class MemorySystem {
 public:
  /// `obs` (optional, must outlive this) traces L2/DRAM transaction
  /// lifecycles and times access()/DRAM service when those pillars are on.
  explicit MemorySystem(const GpuConfig& cfg, obs::SimObserver* obs = nullptr);

  /// One L1-miss transaction first observed at `now`; returns data-ready
  /// cycle at the SM. Deterministic in call order.
  [[nodiscard]] Cycle access(Addr line_addr, Cycle now);

  // -- introspection -------------------------------------------------------
  [[nodiscard]] std::uint32_t num_banks() const {
    return static_cast<std::uint32_t>(banks_.size());
  }
  /// Geometry actually given to bank `bank` (remainder sets/MSHRs go to the
  /// low banks; per-bank sums reconstruct the configured L2 totals).
  [[nodiscard]] const CacheConfig& bank_config(std::uint32_t bank) const;

  // -- stats -------------------------------------------------------------
  [[nodiscard]] std::uint64_t l2_accesses() const;
  [[nodiscard]] std::uint64_t l2_misses() const;
  [[nodiscard]] std::uint64_t dram_requests() const { return dram_.requests; }
  [[nodiscard]] std::uint64_t dram_row_hits() const { return dram_.row_hits; }

  // -- occupancy gauges (timeline sampling) --------------------------------
  /// L2 banks whose serialization queue extends past `at`.
  [[nodiscard]] std::uint32_t l2_busy_banks(Cycle at) const;
  [[nodiscard]] std::uint32_t dram_busy_banks(Cycle at) const { return dram_.busy_banks(at); }

 private:
  struct L2Bank {
    explicit L2Bank(const CacheConfig& c) : tags(c) {}
    Cache tags;
    Cycle next_free = 0;
  };

  GpuConfig cfg_;
  std::vector<L2Bank> banks_;
  Dram dram_;
  obs::SimObserver* trace_ = nullptr;  ///< null unless event tracing is on
  prof::HostProfiler* prof_ = nullptr; ///< null unless host profiling is on
  /// Cycles an L2 bank is occupied per transaction.
  static constexpr Cycle kBankOccupancy = 2;
};

}  // namespace grs
