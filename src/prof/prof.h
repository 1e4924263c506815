// Host-phase profiler: where does the *host* wall clock go inside a
// simulation? Scopes over the hot phases (scheduler scan, issue,
// execute/writeback, memory system, DRAM, event-mode sleep bookkeeping,
// result-cache lookup/store) count every call and tag the thread with the
// innermost open phase; a per-thread timer samples the tag every millisecond
// while a root scope is open. Calls, work counts and wall_seconds are exact;
// a phase's self time is an estimate, the wall times its sample share.
//
// The third pillar of obs::SimObserver (src/obs/obs.h), with its contract:
// every hook site guards on a pointer that is null unless ObsOptions::prof is
// set (one untaken branch when off), nothing enters GpuConfig, and nothing
// feeds back into simulation state (tests/test_prof.cc). Host time is wall
// time; cross-run comparisons belong to perfbench/README.md. Depends only on
// common/.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/check.h"

namespace grs::prof {

/// The instrumented host phases, in report order.
enum class Phase : std::uint8_t {
  kSimulate,       ///< one simulate() call, root of every sim stack
  kExecute,        ///< per-cycle retire: writeback event + L1 MSHR drains
  kSchedulerScan,  ///< candidate scan + pick across all warp schedulers
  kIssue,          ///< issuing the picked instruction (incl. coalescing)
  kMemsys,         ///< shared L2 access path (bank queue + tags)
  kDram,           ///< DRAM request service (inside memsys_l2)
  kEventSleep,     ///< event-mode sleep bookkeeping (wakeup computation)
  kTimeline,       ///< observability timeline sampling (obs pillar)
  kCacheLookup,    ///< result-cache lookup (runner, outside simulate)
  kCacheStore,     ///< result-cache store (runner, outside simulate)
};
inline constexpr std::size_t kNumPhases = 10;

/// Stable snake_case spelling used in both the JSON and folded outputs.
[[nodiscard]] const char* to_string(Phase p);

/// No phase: the parent of a root, and the tag of a thread with no scope open.
inline constexpr auto kNoPhase = static_cast<Phase>(kNumPhases);

/// The phase open whenever `p` opens. The hook sites nest statically, so one
/// table gives every phase's stack; roots (simulate and the result-cache
/// phases) open with no phase open.
[[nodiscard]] constexpr Phase parent(Phase p) {
  switch (p) {
    case Phase::kExecute:
    case Phase::kSchedulerScan:
    case Phase::kEventSleep:
    case Phase::kTimeline: return Phase::kSimulate;
    case Phase::kIssue: return Phase::kSchedulerScan;
    case Phase::kMemsys: return Phase::kIssue;
    case Phase::kDram: return Phase::kMemsys;
    default: return kNoPhase;
  }
}

/// The innermost phase open on this thread; the sampler's signal handler
/// reads it. Volatile rather than atomic: only this thread and its own
/// handler touch it, and GCC treats even a relaxed atomic as a barrier.
inline thread_local volatile Phase t_open = kNoPhase;

/// Counts calls and samples for one thread of execution. Not thread-safe:
/// the engine keeps one profiler per machine, in its observer, and merges
/// them post-run in machine order, like buffered observability outputs.
class HostProfiler {
 public:
  /// One sample of phase `p`. The sampler's signal handler calls it for the
  /// thread's tagged phase; tests inject samples through it.
  void add_sample(Phase p) { ++samples_[idx(p)]; }

  /// Fold `o`'s counts, samples and wall into this profiler.
  void merge(const HostProfiler& o);

  [[nodiscard]] std::uint64_t calls(Phase p) const { return calls_[idx(p)]; }
  [[nodiscard]] std::uint64_t samples(Phase p) const { return samples_[idx(p)]; }
  [[nodiscard]] std::uint64_t samples() const;
  /// Estimated exclusive seconds: wall_seconds() × the phase's sample share.
  [[nodiscard]] double self_seconds(Phase p) const;
  /// Seconds covered by root scopes, timed exactly: the profiled wall clock.
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

  /// "grs-prof-v2" JSON document (docs/perf-tracking.md): wall_seconds,
  /// samples, one entry per phase with calls/samples/self_s, and the work
  /// counts.
  [[nodiscard]] std::string json() const;

  /// Folded-stack lines ("simulate;scheduler_scan;issue 1234\n", value =
  /// samples) — flamegraph.pl / speedscope input.
  [[nodiscard]] std::string folded() const;

 private:
  friend class ScopedPhase;
  static std::size_t idx(Phase p) { return static_cast<std::size_t>(p); }
  /// Only a root scope reads the clock and runs this thread's sampler.
  void open_root();
  void close_root();

  std::array<std::uint64_t, kNumPhases> calls_{};
  std::array<std::uint64_t, kNumPhases> samples_{};
  double wall_ = 0.0;
  std::uint64_t warps_scanned_ = 0;
  std::uint64_t warps_decided_ = 0;
  std::uint64_t fingerprints_hashed_ = 0;
};

/// RAII phase scope, null-safe: `ScopedPhase s(prof_, Phase::kIssue);` is one
/// untaken branch when `prof_` is null (the default). Otherwise it counts the
/// call, checks that the phase opens inside its parent, and tags the thread.
class ScopedPhase {
 public:
  ScopedPhase(HostProfiler* p, Phase ph) : p_(p), ph_(ph) {
    if (p_ == nullptr) return;
    GRS_CHECK_MSG(t_open == parent(ph), "profiler phase opened outside its parent phase");
    ++p_->calls_[HostProfiler::idx(ph)];
    t_open = ph;
    if (parent(ph) == kNoPhase) p_->open_root();
  }
  ~ScopedPhase() {
    if (p_ == nullptr) return;
    if (parent(ph_) == kNoPhase) p_->close_root();
    t_open = parent(ph_);
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
