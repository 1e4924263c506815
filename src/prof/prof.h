// Host-phase profiler: where does the *host* wall clock go inside a
// simulation? RAII scoped timers over the simulator's hot phases (scheduler
// scan, issue, execute/writeback, memory system, DRAM, event-mode sleep
// bookkeeping, result-cache lookup/store), aggregated per simulation and
// merged per sweep by the runner engine.
//
// The profiler is the third pillar of obs::SimObserver (src/obs/obs.h),
// beside the trace and the timeline: the simulator reaches it only through
// the one observer pointer, as observer->profiler(). Same contract as the
// other pillars: zero-cost when off (every hook site guards on a profiler
// pointer, read from the observer once at construction, that is null unless
// ObsOptions::prof is set, so the default run pays one untaken branch per
// site), options stay out of GpuConfig so config fingerprints and
// result-cache keys are untouched, and nothing here ever feeds back into
// simulation state — sim stats are bit-identical with profiling on
// (tests/test_prof.cc).
//
// Host time is wall time: profiles from different machines or runs are not
// comparable sample-for-sample. Cross-run speed comparisons belong to the
// end-to-end benchmark (perfbench/README.md); this is the drill-down inside
// one run. Depends only on common/.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"

namespace grs::prof {

/// The instrumented host phases, in report order. Phases nest at runtime
/// (issue inside scheduler_scan, dram inside memsys_l2, everything inside
/// simulate); the profiler tracks inclusive (total) and exclusive (self)
/// time per phase plus per-stack self time for folded output.
enum class Phase : std::uint8_t {
  kSimulate,       ///< one simulate() call, root of every sim stack
  kExecute,        ///< per-cycle retire: writeback event + L1 MSHR drains
  kSchedulerScan,  ///< candidate scan + pick across all warp schedulers
  kIssue,          ///< issuing the picked instruction (incl. coalescing)
  kMemsys,         ///< shared L2 access path (bank queue + tags)
  kDram,           ///< DRAM request service (inside memsys_l2)
  kEventSleep,     ///< event-mode sleep bookkeeping (wakeup computation,
                   ///< idle-window replay accounting)
  kTimeline,       ///< observability timeline sampling (obs pillar)
  kCacheLookup,    ///< result-cache lookup (runner, outside simulate)
  kCacheStore,     ///< result-cache store (runner, outside simulate)
};
inline constexpr std::size_t kNumPhases = 10;

/// Stable snake_case spelling used in both the JSON and folded outputs.
[[nodiscard]] const char* to_string(Phase p);

/// Accumulates phase timings for one thread of execution. Not thread-safe:
/// the engine keeps one observer, and so one profiler, per sweep point and
/// merges the profiles post-run in point order, exactly like buffered
/// observability outputs.
class HostProfiler {
 public:
  /// `clock` returns seconds on a monotonic clock; injectable for
  /// deterministic tests, defaults to the one host-time source.
  using ClockFn = double (*)();
  explicit HostProfiler(ClockFn clock = &monotonic_seconds) : clock_(clock) {}

  /// Scoped via ScopedPhase; begin/end must nest (checked).
  void begin(Phase p);
  void end(Phase p);

  /// Fold `o`'s aggregates into this profiler (both stacks must be idle).
  void merge(const HostProfiler& o);

  [[nodiscard]] std::uint64_t calls(Phase p) const { return agg(p).calls; }
  /// Inclusive seconds (phase + everything nested under it).
  [[nodiscard]] double total_seconds(Phase p) const { return agg(p).total; }
  /// Exclusive seconds (nested phases subtracted).
  [[nodiscard]] double self_seconds(Phase p) const { return agg(p).self; }
  /// Seconds covered by root-level phases — the profiled wall clock that
  /// "% of sim wall" in the JSON is relative to.
  [[nodiscard]] double wall_seconds() const { return wall_; }

  /// Deterministic work counts, host-independent, so gated exactly like
  /// call counts. warps_scanned: scan_warp() calls, the warps the scheduler
  /// scans visited. warps_decided: the scans among them that ran the
  /// instruction-level checks, because the warp was not yet decided.
  /// fingerprints_hashed: the canonical kernel and config texts a sweep's
  /// key memo hashed (cache::Fingerprints), added once per sweep.
  void add_warps_scanned(std::uint64_t n) { warps_scanned_ += n; }
  [[nodiscard]] std::uint64_t warps_scanned() const { return warps_scanned_; }
  void add_warps_decided(std::uint64_t n) { warps_decided_ += n; }
  [[nodiscard]] std::uint64_t warps_decided() const { return warps_decided_; }
  void add_fingerprints_hashed(std::uint64_t n) { fingerprints_hashed_ += n; }
  [[nodiscard]] std::uint64_t fingerprints_hashed() const { return fingerprints_hashed_; }

  /// "grs-prof-v1" JSON document (docs/perf-tracking.md): wall_seconds, one
  /// entry per observed phase with calls/total_s/self_s/pct_of_wall, and the
  /// work counts.
  [[nodiscard]] std::string json() const;

  /// Folded-stack lines ("simulate;scheduler_scan;issue 1234\n", value =
  /// self time in integer microseconds) — flamegraph.pl / speedscope input.
  [[nodiscard]] std::string folded() const;

 private:
  struct Agg {
    double total = 0.0;
    double self = 0.0;
    std::uint64_t calls = 0;
  };
  struct Frame {
    Phase p;
    double start = 0.0;
    double child = 0.0;     ///< time spent in nested phases
    std::uint64_t path = 0; ///< nibble-encoded stack (see prof.cc)
  };

  [[nodiscard]] const Agg& agg(Phase p) const { return agg_[static_cast<std::size_t>(p)]; }
  [[nodiscard]] Agg& agg(Phase p) { return agg_[static_cast<std::size_t>(p)]; }

  ClockFn clock_;
  std::array<Agg, kNumPhases> agg_{};
  std::vector<Frame> stack_;
  /// Self seconds per nibble-encoded stack path; std::map keeps folded
  /// output deterministic.
  std::map<std::uint64_t, double> folded_;
  double wall_ = 0.0;
  std::uint64_t warps_scanned_ = 0;
  std::uint64_t warps_decided_ = 0;
  std::uint64_t fingerprints_hashed_ = 0;
};

/// RAII phase scope, null-safe: `ScopedPhase s(prof_, Phase::kIssue);` is one
/// untaken branch when `prof_` is null (the default).
class ScopedPhase {
 public:
  ScopedPhase(HostProfiler* p, Phase ph) : p_(p), ph_(ph) {
    if (p_ != nullptr) p_->begin(ph_);
  }
  ~ScopedPhase() {
    if (p_ != nullptr) p_->end(ph_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  HostProfiler* p_;
  Phase ph_;
};

/// Write json() to `json_path` and/or folded() to `folded_path` (either may
/// be empty = skip). Throws std::runtime_error on I/O failure.
void write_prof_outputs(const HostProfiler& prof, const std::string& json_path,
                        const std::string& folded_path);

}  // namespace grs::prof
