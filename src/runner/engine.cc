#include "runner/engine.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "cache/key.h"
#include "common/clock.h"
#include "gpu/result_codec.h"
#include "obs/obs.h"
#include "runner/thread_pool.h"

namespace grs::runner {

namespace {

/// Resolve one point through the cache. Hits skip simulate() entirely (except
/// under kVerify, whose whole point is to re-simulate); misses simulate and —
/// in the writing modes — publish atomically. `observer` (may be null) times
/// the cache phases as well as the simulation.
SimResult run_cached_point(cache::ResultCache& cache, const SweepPoint& p, bool* from_cache,
                           obs::SimObserver* observer) {
  prof::HostProfiler* const prof = obs::profiler(observer);
  const std::string key = cache::result_cache_key(p.config, p.kernel);
  std::string payload;
  SimResult cached;
  bool hit;
  {
    prof::ScopedPhase prof_scope(prof, prof::Phase::kCacheLookup);
    hit = cache.lookup(key, &payload, &cached);
  }
  if (hit) {
    if (cache.mode() == cache::CacheMode::kVerify) {
      // The fuzz oracle recast as an integrity check: a warm entry must be
      // byte-identical to a fresh simulation's encoding.
      SimResult fresh = simulate(p.config, p.kernel, observer);
      if (encode_result(fresh) != payload) {
        cache.note_verify_failure();
        throw std::runtime_error("result cache verify FAILED: stored entry " +
                                 cache.entry_path(key) + " differs from re-simulating '" +
                                 p.kernel.name + "' under " + p.variant +
                                 " — the store is poisoned or the simulator changed without "
                                 "bumping the schema version (src/cache/key.h)");
      }
      cache.note_verified();
      return fresh;
    }
    // The payload carries stats + occupancy; the key pins the config, so the
    // caller-visible config is restored from the point itself.
    cached.config = p.config;
    *from_cache = true;
    return cached;
  }
  SimResult fresh = simulate(p.config, p.kernel, observer);
  if (cache.mode() != cache::CacheMode::kRead) {
    prof::ScopedPhase prof_scope(prof, prof::Phase::kCacheStore);
    cache.store(key, fresh);
  }
  return fresh;
}

void write_text_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open '" + path + "' for writing");
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!f) throw std::runtime_error("failed writing '" + path + "'");
}

}  // namespace

std::string obs_point_path(const std::string& base, std::size_t index, std::size_t n) {
  if (n <= 1) return base;
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  const std::string idx = "." + std::to_string(index);
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return base + idx;
  return base.substr(0, dot) + idx + base.substr(dot);
}

std::vector<SweepRow> run_sweep(const SweepSpec& spec, const RunOptions& options) {
  const std::size_t n = spec.points.size();
  std::vector<SweepRow> rows(n);
  if (n == 0) return rows;

  unsigned threads = options.threads == 0 ? ThreadPool::default_threads() : options.threads;
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, n));

  obs::ObsOptions obs_opts;
  obs_opts.trace = !options.trace_path.empty();
  obs_opts.timeline_interval = options.timeline_path.empty() ? 0 : options.timeline_interval;
  obs_opts.prof = options.prof != nullptr;

  // Traces and timelines force fresh simulation: a cache hit has no event
  // stream. Profiling alone times the cache path instead.
  std::unique_ptr<cache::ResultCache> cache;
  if (!obs_opts.trace && obs_opts.timeline_interval == 0 &&
      options.cache_mode != cache::CacheMode::kOff && !options.cache_dir.empty())
    cache = std::make_unique<cache::ResultCache>(options.cache_dir, options.cache_mode);

  // One observer per point keeps every pillar lock-free under worker
  // threads; their outputs are written and merged below, in point order.
  std::vector<std::unique_ptr<obs::SimObserver>> observers(obs_opts.any() ? n : 0);
  for (auto& o : observers) o = std::make_unique<obs::SimObserver>(obs_opts);

  // `done` is only mutated under the mutex so the callback sees a
  // monotonically increasing count.
  std::mutex progress_mu;
  std::size_t done = 0;
  auto run_point = [&](std::size_t i) {
    const WallTimer cell_timer;
    const SweepPoint& p = spec.points[i];
    obs::SimObserver* const observer = observers.empty() ? nullptr : observers[i].get();
    rows[i].point = p;
    rows[i].result = cache ? run_cached_point(*cache, p, &rows[i].from_cache, observer)
                           : simulate(p.config, p.kernel, observer);
    rows[i].wall_ms = cell_timer.seconds() * 1000.0;
    if (options.progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      options.progress(++done, n);
    }
  };

  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_point(i);
  } else {
    ThreadPool pool(threads);
    for (std::size_t i = 0; i < n; ++i) pool.submit([&run_point, i] { run_point(i); });
    pool.wait();
  }

  // Outputs land on disk, and profiles in *options.prof, only after the
  // sweep and in point order — byte-identical files and thread-count
  // independent aggregates for any worker count.
  for (std::size_t i = 0; i < observers.size(); ++i) {
    const obs::SimObserver& o = *observers[i];
    if (obs_opts.trace) write_text_file(obs_point_path(options.trace_path, i, n), o.trace_json());
    if (obs_opts.timeline_interval != 0)
      write_text_file(obs_point_path(options.timeline_path, i, n), o.timeline_csv());
    if (obs_opts.prof) options.prof->merge(*o.profiler());
  }

  if (cache && options.cache_stats != nullptr) *options.cache_stats += cache->stats();
  return rows;
}

}  // namespace grs::runner
