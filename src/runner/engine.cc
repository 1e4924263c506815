#include "runner/engine.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "cache/key.h"
#include "common/clock.h"
#include "common/io.h"
#include "core/occupancy.h"
#include "gpu/result_codec.h"
#include "obs/obs.h"

namespace grs::runner {

namespace {

/// Runs job(0) .. job(count - 1), inline for one job or one thread, else on
/// min(threads, count) workers that take indices from a shared counter while
/// this thread joins them. A throwing index stops no other: the first
/// exception is rethrown once every other index has run.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& job) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        job(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  const std::size_t workers = std::min<std::size_t>(threads, count);
  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> started;
    started.reserve(workers);
    try {
      while (started.size() < workers) started.emplace_back(work);
    } catch (const std::system_error&) {
      work();  // not every worker started: this thread takes a share
    }
    for (std::thread& t : started) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

unsigned default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

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

  // One observer per point keeps every pillar lock-free under the simulation
  // workers; their outputs are written and merged below, in point order.
  std::vector<std::unique_ptr<obs::SimObserver>> observers(obs_opts.any() ? n : 0);
  for (auto& o : observers) o = std::make_unique<obs::SimObserver>(obs_opts);
  const auto observer = [&observers](std::size_t i) {
    return observers.empty() ? nullptr : observers[i].get();
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

  // Planning runs on this thread, so the one key memo needs no lock; it
  // hashes each distinct kernel and config text once (cache/key.h). Every
  // point is keyed before the first lookup.
  cache::Fingerprints fingerprints;
  std::exception_ptr failure;
  try {
    std::vector<std::string> keys(cache ? n : 0), stored(verify ? n : 0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const WallTimer timer;
      keys[i] = fingerprints.result_cache_key(spec.points[i].config, spec.points[i].kernel);
      rows[i].wall_ms = timer.seconds() * 1000.0;
    }

    // Each point in spec order: its cache lookup, where a hit completes its row
    // (kVerify keeps the stored payload for the simulation to check instead),
    // and otherwise its machine group, which the group's first point leads.
    // Only these points get a machine key, so a warm all-hit sweep computes
    // none and simulates nothing. Traced and timelined points stay alone,
    // since each writes its own event stream.
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < n; ++i) {
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
          continue;
        }
      }
      if (streams) {
        groups.push_back({i});
      } else {
        std::string machine = fingerprints.machine_key(p.config, p.kernel);
        const auto [it, added] = group_of.emplace(std::move(machine), groups.size());
        if (added) groups.emplace_back();
        groups[it->second].push_back(i);
      }
      rows[i].wall_ms += timer.seconds() * 1000.0;
    }

    // Simulate each group's leader once. Every member's row is the leader's
    // stats plus its own config and launch plan (members differ at most in t,
    // their plans at most in eq4_blocks). It is stored under its own cache
    // key, or under kVerify byte-compared with the entry its lookup found.
    const unsigned threads = options.threads == 0 ? default_threads() : options.threads;
    parallel_for(groups.size(), threads, [&](std::size_t g) {
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
  } catch (...) {
    failure = std::current_exception();
  }

  // Counters and profiles are published however the sweep ends, so a failed
  // sweep still reports what it counted (a verify failure, say); profiles
  // merge in point order, independent of the worker count.
  if (options.prof != nullptr) {
    options.prof->add_fingerprints_hashed(fingerprints.hashed());
    for (const auto& o : observers) options.prof->merge(*o->profiler());
  }
  if (cache && options.cache_stats != nullptr) *options.cache_stats += cache->stats();
  if (failure) std::rethrow_exception(failure);

  // Output files land on disk only after a complete sweep, in point order,
  // so they are byte-identical for any worker count.
  for (std::size_t i = 0; i < observers.size(); ++i) {
    const obs::SimObserver& o = *observers[i];
    if (obs_opts.trace) write_file(obs_point_path(options.trace_path, i, n), o.trace_json());
    if (obs_opts.timeline_interval != 0)
      write_file(obs_point_path(options.timeline_path, i, n), o.timeline_csv());
  }
  return rows;
}

}  // namespace grs::runner
