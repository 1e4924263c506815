// Histogram reduction: collapse a warp-access stream (trace/trace_reader.h)
// into one MemProfile per static memory instruction (per pc).
//
// For every pc, walking the trace in order:
//   - coalesce: distinct 128-byte cache lines per warp access -> histogram
//   - stride:   delta (in lines) between a warp's consecutive access bases
//   - reuse:    per-warp distance, in accesses, since each line was last
//               touched; rounded up to a power of two; first touches are cold
//   - footprint: total distinct lines the pc touches across the whole trace
//
// Each histogram keeps at most 8 buckets; excess weight folds into the
// nearest surviving bucket (by value) so totals are preserved.
//
// The result is deterministic in the trace order and independent of any
// container iteration order, so the same trace always reduces to the same
// canonical histograms (and therefore the same .gkd bytes).
#pragma once

#include <cstdint>
#include <vector>

#include "isa/mem_profile.h"
#include "workloads/trace/trace_reader.h"

namespace grs::workloads::trace {

/// One static memory instruction's reduced behaviour.
struct InstrStats {
  std::uint64_t pc = 0;
  bool is_store = false;
  std::uint64_t instances = 0;  ///< dynamic warp accesses observed
  std::uint32_t warps = 0;      ///< distinct warps that executed the pc
  MemProfile profile;           ///< canonical; profile.check() is empty
};

/// Reduce `t` to per-pc profiles, sorted by pc ascending.
[[nodiscard]] std::vector<InstrStats> reduce_trace(const Trace& t);

}  // namespace grs::workloads::trace
