// Run telemetry: a machine-readable record of how a sweep run went —
// wall-clock per cell, sims/sec, worker utilization, result-cache
// counters, and host + config fingerprints. Written by the CLIs on
// --manifest; this is the perf trajectory the ROADMAP's speedup work diffs
// against, so the schema is versioned ("grs-run-manifest-v1") and documented
// in docs/observability.md.
//
// Manifests record *host-side* facts only (common/clock.h time, hostnames,
// thread counts); nothing here feeds back into simulation state.
#pragma once

#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "runner/engine.h"

namespace grs::runner {

class RunManifest {
 public:
  /// `tool` names the producing binary ("grs_bench", "grs_cli").
  explicit RunManifest(std::string tool) : tool_(std::move(tool)) {}

  /// Record one completed sweep: per-cell wall time and cache provenance come
  /// from the rows (engine.h fills them), `wall_seconds` is the whole-sweep
  /// wall clock, `threads` the run's worker cap (at most one per point).
  void add_sweep(const std::string& name, const std::vector<SweepRow>& rows,
                 double wall_seconds, unsigned threads);

  /// Attach aggregated result-cache counters (omit when caching was off).
  void set_cache_stats(const cache::CacheStats& stats);

  [[nodiscard]] std::string to_json() const;

  /// Write to_json() to `path`; throws std::runtime_error on I/O failure.
  void write(const std::string& path) const;

 private:
  struct Cell {
    std::string variant;
    std::string kernel;
    std::string config_fingerprint;  ///< GpuConfig::fingerprint() (sha256 hex)
    double wall_ms = 0.0;
    bool from_cache = false;
    std::uint64_t cycles = 0;
    double ipc = 0.0;
  };
  struct Sweep {
    std::string name;
    unsigned threads = 0;
    double wall_seconds = 0.0;
    double sims_per_second = 0.0;
    /// sum(cell wall) / (threads * sweep wall): 1.0 = every worker busy
    /// for the whole sweep.
    double pool_utilization = 0.0;
    std::vector<Cell> cells;
  };

  std::string tool_;
  std::vector<Sweep> sweeps_;
  bool has_cache_ = false;
  cache::CacheStats cache_;
};

}  // namespace grs::runner
