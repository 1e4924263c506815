// SimObserver: the one object the simulator talks to when instrumentation is
// on, and the only instrumentation argument simulate(), Gpu,
// StreamingMultiprocessor and MemorySystem take. Zero-cost-when-off contract:
// the SMs and the memory system cache their trace and profiler pointers
// (tracer(), profiler() below) once, at construction, and every hook site
// guards on a pointer that is null unless its pillar is enabled. A default
// run compiles the instrumentation down to an untaken branch; GpuStats and
// the result-cache key are untouched either way.
//
// Pillars (any subset may be active):
//  * event tracing  — each hook below renders its Chrome-trace event straight
//    into the observer's trace string; obs.cc is the one definition of the
//    format (keys, envelope, metadata records, the pid/tid scheme). The SM
//    reports each change of a warp's state, so its slices are the intervals
//    the counters close, which keeps traces byte-identical across cycle and
//    event exec modes (obs/events.h).
//  * timeline sampling — gpu/gpu.cc drives timeline_sample() at interval
//    boundaries; obs/timeline.h renders the CSV.
//  * host-phase profiling — profiler() is the HostProfiler whose scopes
//    count the hot phases' calls and tag the thread for its sampler
//    (src/prof).
//
// One SimObserver observes exactly one simulate() call (plus, in the runner,
// that point's result-cache lookup and store); it is not thread-safe and must
// not be shared across sweep points.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/opcode.h"
#include "obs/events.h"
#include "obs/timeline.h"
#include "prof/prof.h"

namespace grs::obs {

/// Which pillars are on. Deliberately NOT part of GpuConfig: observability
/// must never change a config fingerprint or a result-cache key.
struct ObsOptions {
  bool trace = false;            ///< collect trace events
  Cycle timeline_interval = 0;   ///< sample period in cycles; 0 = timeline off
  bool prof = false;             ///< time host phases (src/prof)

  [[nodiscard]] bool any() const { return trace || timeline_interval != 0 || prof; }
};

/// Fixed shape of the machine being traced; begin_run() turns it into
/// Perfetto process/thread metadata so tracks are named before any event.
struct TraceTopology {
  std::uint32_t num_sms = 0;
  std::uint32_t warp_slots = 0;   ///< per SM
  std::uint32_t block_slots = 0;  ///< per SM
  std::uint32_t pairs = 0;        ///< per SM
  std::uint32_t l2_banks = 0;
  std::uint32_t dram_channels = 0;
  std::uint32_t dram_banks_per_channel = 0;
  std::string kernel;
};

class SimObserver {
 public:
  /// Owns a TimelineSampler when opts.timeline_interval is set, and a
  /// HostProfiler when opts.prof is set.
  explicit SimObserver(const ObsOptions& opts);

  SimObserver(const SimObserver&) = delete;
  SimObserver& operator=(const SimObserver&) = delete;

  [[nodiscard]] bool trace_enabled() const { return opts_.trace; }
  [[nodiscard]] Cycle timeline_interval() const { return opts_.timeline_interval; }
  /// The profiler pillar; null when opts.prof is off.
  [[nodiscard]] prof::HostProfiler* profiler() const { return prof_.get(); }

  // --- lifecycle (gpu/gpu.cc) --------------------------------------------
  void begin_run(const TraceTopology& topo);
  /// Seal the trace document (after each SM's end_trace()).
  void finalize(Cycle final_cycle);

  // --- warp hooks (sm/sm.cc; call only when trace_enabled()) -------------
  /// Warp `slot` left state `from` and entered `to` at `now`: ends the
  /// slice of `from` and begins one of `to` (kNone: no slice).
  void warp_state(SmId sm, std::uint32_t slot, Cycle now, WarpState from, WarpState to);
  void warp_issue(SmId sm, std::uint32_t slot, Cycle now, Op op);

  // --- block lifecycle ----------------------------------------------------
  void block_launch(SmId sm, std::uint32_t slot, std::uint64_t block_uid, Cycle now,
                    int pair_id, int side, bool owner);
  void block_finish(SmId sm, std::uint32_t slot, std::uint64_t block_uid, Cycle now);

  // --- sharing mechanism --------------------------------------------------
  void lock_acquire(SmId sm, std::uint32_t pair, Cycle now, bool reg, int side,
                    std::uint32_t pos, bool owner_seeded);
  void lock_release_warp(SmId sm, std::uint32_t pair, Cycle now, int side, std::uint32_t pos);
  void lock_release_block(SmId sm, std::uint32_t pair, Cycle now, int side);
  void ownership_transfer(SmId sm, std::uint32_t pair, Cycle now, int new_side);

  // --- memory hierarchy ---------------------------------------------------
  void l1_transaction(SmId sm, Cycle now, Addr line_addr, L1Outcome outcome, Cycle done);
  void l2_transaction(std::uint32_t bank, Cycle start, Addr line_addr, bool hit, bool merge,
                      Cycle done);
  void dram_transaction(std::uint32_t channel, std::uint32_t bank, Cycle begin, Addr line_addr,
                        bool row_hit, Cycle done);

  // --- timeline -----------------------------------------------------------
  void timeline_sample(Cycle boundary, const std::vector<SmTimelinePoint>& sms,
                       const GpuTimelinePoint& gpu);

  // --- outputs ------------------------------------------------------------
  /// Complete trace JSON (after finalize()); empty when tracing is off.
  [[nodiscard]] const std::string& trace_json() const { return trace_; }
  /// Timeline CSV; empty when the timeline pillar is off.
  [[nodiscard]] std::string timeline_csv() const;

 private:
  /// Append one event: `cat` is null only for metadata ('M'), `args` is a
  /// rendered `{...}` object or null, and `dur` is read only for 'X'.
  void event(char ph, std::uint32_t pid, std::uint32_t tid, Cycle ts, const char* name,
             const char* cat, const char* args = nullptr, Cycle dur = 0);

  ObsOptions opts_;
  std::string trace_;  ///< the trace document; empty unless opts.trace
  std::unique_ptr<TimelineSampler> timeline_;
  std::unique_ptr<prof::HostProfiler> prof_;

  std::uint32_t num_sms_ = 0;
  std::uint32_t dram_banks_per_channel_ = 0;
  std::string kernel_;
};

/// `o` when it traces, else null: the pointer trace hook sites guard on.
[[nodiscard]] inline SimObserver* tracer(SimObserver* o) {
  return o != nullptr && o->trace_enabled() ? o : nullptr;
}

/// `o`'s profiler pillar, else null: the pointer prof::ScopedPhase sites
/// guard on.
[[nodiscard]] inline prof::HostProfiler* profiler(const SimObserver* o) {
  return o != nullptr ? o->profiler() : nullptr;
}

}  // namespace grs::obs
