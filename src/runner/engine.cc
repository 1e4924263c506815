#include "runner/engine.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "cache/key.h"
#include "common/clock.h"
#include "core/occupancy.h"
#include "gpu/result_codec.h"
#include "obs/obs.h"
#include "runner/thread_pool.h"

namespace grs::runner {

namespace {

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
  const bool streams = obs_opts.trace || obs_opts.timeline_interval != 0;

  // Traces and timelines force fresh simulation: a cache hit has no event
  // stream. Profiling alone times the cache path instead.
  std::unique_ptr<cache::ResultCache> cache;
  if (!streams && options.cache_mode != cache::CacheMode::kOff && !options.cache_dir.empty())
    cache = std::make_unique<cache::ResultCache>(options.cache_dir, options.cache_mode);
  const bool verify = cache && cache->mode() == cache::CacheMode::kVerify;

  // One observer per point keeps every pillar lock-free under worker
  // threads; their outputs are written and merged below, in point order.
  std::vector<std::unique_ptr<obs::SimObserver>> observers(obs_opts.any() ? n : 0);
  for (auto& o : observers) o = std::make_unique<obs::SimObserver>(obs_opts);
  const auto observer = [&observers](std::size_t i) {
    return observers.empty() ? nullptr : observers[i].get();
  };

  // Both passes share one pool; a single thread runs them inline.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const auto on_pool = [&pool](std::size_t count, const std::function<void(std::size_t)>& job) {
    if (!pool) {
      for (std::size_t i = 0; i < count; ++i) job(i);
      return;
    }
    for (std::size_t i = 0; i < count; ++i) pool->submit([&job, i] { job(i); });
    pool->wait();
  };

  // `done` is only mutated under the mutex so the callback sees a
  // monotonically increasing count.
  std::mutex progress_mu;
  std::size_t done = 0;
  const auto complete = [&](std::size_t i, const WallTimer& timer) {
    rows[i].wall_ms += timer.seconds() * 1000.0;
    if (options.progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      options.progress(++done, n);
    }
  };

  // Every key comes from one memo, on this thread before any worker starts,
  // so the memo needs no lock; it hashes each distinct kernel and config text
  // once (cache/key.h).
  cache::Fingerprints fingerprints;
  std::vector<std::string> keys(cache ? n : 0), stored(verify ? n : 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const WallTimer timer;
    keys[i] = fingerprints.result_cache_key(spec.points[i].config, spec.points[i].kernel);
    rows[i].wall_ms = timer.seconds() * 1000.0;
  }

  // Pass 1: each point's cache lookup. A hit completes its row here, except
  // under kVerify, which keeps the stored payload for pass 2 to check.
  on_pool(n, [&](std::size_t i) {
    const WallTimer timer;
    const SweepPoint& p = spec.points[i];
    rows[i].point = p;
    if (cache) {
      SimResult cached;
      bool hit;
      {
        prof::ScopedPhase prof_scope(obs::profiler(observer(i)), prof::Phase::kCacheLookup);
        hit = cache->lookup(keys[i], verify ? &stored[i] : nullptr, &cached);
      }
      if (hit && !verify) {
        // The payload carries stats + occupancy; the key pins the config, so
        // the caller-visible config is restored from the point itself.
        cached.config = p.config;
        rows[i].result = std::move(cached);
        rows[i].from_cache = true;
        complete(i, timer);
        return;
      }
    }
    rows[i].wall_ms += timer.seconds() * 1000.0;
  });

  // Group the points the store did not serve by machine key, in spec order;
  // a group's first point leads it. Only these points get a machine key, so
  // a warm all-hit sweep computes none. Traced and timelined points stay
  // alone, since each writes its own event stream.
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::string, std::size_t> group_of;
  for (std::size_t i = 0; i < n; ++i) {
    if (rows[i].from_cache) continue;
    if (streams) {
      groups.push_back({i});
      continue;
    }
    const WallTimer timer;
    const SweepPoint& p = spec.points[i];
    std::string machine = fingerprints.machine_key(p.config, p.kernel);
    const auto [it, added] = group_of.emplace(std::move(machine), groups.size());
    if (added) groups.emplace_back();
    groups[it->second].push_back(i);
    rows[i].wall_ms += timer.seconds() * 1000.0;
  }
  if (options.prof != nullptr) options.prof->add_fingerprints_hashed(fingerprints.hashed());

  // Pass 2: simulate each group's leader once. Every member's row is the
  // leader's stats plus its own config and launch plan (members differ at
  // most in t, their plans at most in eq4_blocks). It is stored under its own
  // cache key, or under kVerify byte-compared with the entry pass 1 found.
  on_pool(groups.size(), [&](std::size_t g) {
    const std::vector<std::size_t>& members = groups[g];
    WallTimer timer;  // the leader's cell includes the simulation
    const SweepPoint& lead = spec.points[members.front()];
    const GpuStats stats = simulate(lead.config, lead.kernel, observer(members.front())).stats;
    for (const std::size_t i : members) {
      const SweepPoint& p = spec.points[i];
      SimResult& r = rows[i].result;
      r.stats = stats;
      r.occupancy = compute_occupancy(p.config, p.kernel.resources);
      r.config = p.config;
      if (verify && !stored[i].empty()) {  // a verify-mode hit
        // The fuzz oracle recast as an integrity check: a warm entry must be
        // byte-identical to a fresh simulation's encoding.
        if (encode_result(r) != stored[i]) {
          cache->note_verify_failure();
          throw std::runtime_error("result cache verify FAILED: stored entry " +
                                   cache->entry_path(keys[i]) + " differs from re-simulating '" +
                                   p.kernel.name + "' under " + p.variant +
                                   " — the store is poisoned or the simulator changed without "
                                   "bumping the schema version (src/cache/key.h)");
        }
        cache->note_verified();
      } else if (cache && cache->mode() != cache::CacheMode::kRead) {
        prof::ScopedPhase prof_scope(obs::profiler(observer(i)), prof::Phase::kCacheStore);
        cache->store(keys[i], r);
      }
      complete(i, timer);
      timer.restart();
    }
  });

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
