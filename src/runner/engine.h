// Parallel experiment engine: execute a SweepSpec, simulating on worker
// threads.
//
// simulate() is pure and bit-deterministic (common/prng.h), so sweep points
// are embarrassingly parallel. run_sweep plans on the calling thread (keys,
// machine groups, cache lookups), then simulates each distinct machine once
// in one parallel loop; each simulation writes into its pre-allocated result
// slots and the returned vector is always in submission order. A sweep run
// with 1 thread and with N threads produces byte-identical results. Points
// that differ only in the sharing threshold and resolve to the same launch
// plan are one machine (one cache::result_cache_key) and share one
// simulate(), one cache entry and one trace.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "common/types.h"
#include "gpu/simulator.h"
#include "prof/prof.h"
#include "runner/sweep.h"

namespace grs::runner {

/// One completed sweep point. `wall_ms`/`from_cache` are host-side telemetry
/// for run manifests (runner/manifest.h); they are never part of result
/// encodings, so rows stay byte-identical across thread counts and hosts.
struct SweepRow {
  SweepPoint point;
  SimResult result;
  /// Wall clock this cell took in this run: its key, plus the cache lookup,
  /// simulation and store if it led its machine's group, or else only the
  /// copy of the leader's stats into its row.
  double wall_ms = 0.0;
  bool from_cache = false;  ///< result served from the result cache
};

struct RunOptions {
  /// Cap on the simulation workers; 0 means default_threads(). Planning is
  /// serial on the calling thread; simulation then runs on min(threads,
  /// distinct machines) workers, or inline when that is one, so a sweep the
  /// cache serves whole starts no thread.
  unsigned threads = 0;

  /// Optional progress callback, invoked after each point completes as
  /// (done, total): on the calling thread for a cache hit, which completes
  /// while planning, otherwise on the thread that simulated its machine
  /// (calls are serialized).
  std::function<void(std::size_t, std::size_t)> progress;

  /// Content-addressed result cache (src/cache). Caching is active only when
  /// `cache_dir` is non-empty AND `cache_mode` is not kOff; each machine's
  /// key (cache::result_cache_key) is then looked up once before anything
  /// is simulated, and a machine the store did not serve is simulated once
  /// and stored once, under that key. kVerify includes the hits: it
  /// simulates each of their machines once and throws std::runtime_error
  /// (from run_sweep), naming the entry, when the stats the entry serves
  /// differ from that simulation's. Rows produced from cache hits are
  /// byte-identical to freshly simulated ones.
  std::string cache_dir;
  cache::CacheMode cache_mode = cache::CacheMode::kOff;

  /// When non-null, this run's cache counters are accumulated (+=) into it
  /// after the sweep, also when it throws.
  cache::CacheStats* cache_stats = nullptr;

  /// Instrumentation (src/obs). The three settings below are the pillars of
  /// one SimObserver per machine; when any is on, every machine runs under
  /// its own observer, and the outputs are written after the sweep, so files
  /// and profiles are identical across --threads.
  ///
  /// Trace and timeline: every machine is simulated fresh, once — the result
  /// cache is bypassed entirely for the run, since a cached result has no
  /// events to replay. Multi-point sweeps write one file per point with the
  /// point index spliced in before the extension (trace.json ->
  /// trace.0.json ...); each member's file repeats its leader's bytes.
  std::string trace_path;       ///< Chrome-trace JSON per point
  std::string timeline_path;    ///< per-SM counter timeline CSV per point
  Cycle timeline_interval = 1000;  ///< sample period (cycles) when timeline_path is set

  /// Host-phase profiling, the observer's profiler pillar (src/prof). When
  /// non-null, each machine's profile (cache lookup/store phases included)
  /// is merged into *prof after the sweep, also when it throws. Profiling
  /// does NOT bypass the result cache: a cache hit simply contributes
  /// cache_lookup time and no simulate phases. Sim stats stay bit-identical
  /// with profiling on (tests/test_prof.cc).
  prof::HostProfiler* prof = nullptr;
};

/// Run every point of `spec`. Returns one row per point, in spec order.
/// Planning is serial, on the calling thread:
///  - every point is keyed (cache::result_cache_key) and joins its machine's
///    group, which its first point leads;
///  - with the cache on, each group is then looked up once. A hit fills
///    every member's row (kVerify keeps the stats it serves instead).
/// One parallel loop then simulates each group the store did not serve
/// once, from its leader, on at most options.threads workers. Every
/// member's row is the hit's or the simulation's stats plus the member's
/// own config and compute_occupancy(); the rows equal per-point simulate()
/// results byte for byte.
/// Planning keys through one cache::Fingerprints memo, which lives only for
/// this call: it builds and hashes each distinct kernel and config text
/// once, and each distinct key once; being serial, it needs no lock. A warm
/// all-hit sweep starts no thread. With options.prof set, the memo's count
/// of hashed texts is added to it (prof::HostProfiler::fingerprints_hashed).
/// An empty spec returns an empty vector.
/// A throw while planning (from the progress callback on a hit, say)
/// propagates at once, before anything is simulated. If a simulation (or the
/// progress callback after it) throws, the other groups still run, and the
/// first exception is rethrown here once they have, instead of terminating
/// the process inside a worker thread. A throwing sweep still publishes its
/// cache counters and profiles before the rethrow; only a complete sweep
/// writes trace and timeline files.
[[nodiscard]] std::vector<SweepRow> run_sweep(const SweepSpec& spec,
                                              const RunOptions& options = {});

/// The default worker cap: std::thread::hardware_concurrency(), or 1 when
/// that is unknown.
[[nodiscard]] unsigned default_threads();

/// File name for point `index` of an `n`-point sweep writing to `base`:
/// `base` itself when n == 1, otherwise `base` with ".<index>" spliced in
/// before the extension ("trace.json" -> "trace.3.json"; extensionless
/// bases get a plain suffix).
[[nodiscard]] std::string obs_point_path(const std::string& base, std::size_t index,
                                         std::size_t n);

}  // namespace grs::runner
