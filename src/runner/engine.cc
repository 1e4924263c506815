#include "runner/engine.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "cache/key.h"
#include "common/clock.h"
#include "common/io.h"
#include "core/occupancy.h"
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

  // One machine per distinct key, in order of first appearance; its first
  // point leads it, and one observer per machine keeps every pillar
  // lock-free under the simulation workers.
  struct Machine {
    std::string key;
    std::vector<std::size_t> points;
  };
  std::vector<Machine> machines;
  std::vector<std::unique_ptr<obs::SimObserver>> observers;
  const auto observer = [&observers](std::size_t m) {
    return observers.empty() ? nullptr : observers[m].get();
  };
  // Every member's row: the machine's stats with its own config and plan
  // (members differ at most in t, their plans at most in eq4_blocks).
  const auto fill = [&](std::size_t m, const GpuStats& stats, bool from_cache, WallTimer timer) {
    for (const std::size_t i : machines[m].points) {
      const SweepPoint& p = spec.points[i];
      rows[i].result = SimResult{stats, compute_occupancy(p.config, p.kernel.resources), p.config};
      rows[i].from_cache = from_cache;
      complete(i, timer);
      timer.restart();
    }
  };

  // Planning runs on this thread, so the one key memo needs no lock; it
  // builds and hashes each distinct kernel and config text once, and each
  // distinct key once (cache/key.h).
  cache::Fingerprints fingerprints;
  std::exception_ptr failure;
  try {
    std::unordered_map<std::string, std::size_t> machine_of;
    for (std::size_t i = 0; i < n; ++i) {
      const WallTimer timer;
      const SweepPoint& p = spec.points[i];
      rows[i].point = p;
      const auto [it, added] =
          machine_of.emplace(fingerprints.result_cache_key(p.config, p.kernel), machines.size());
      if (added) machines.push_back({it->first, {}});
      machines[it->second].points.push_back(i);
      rows[i].wall_ms = timer.seconds() * 1000.0;
    }
    observers.resize(obs_opts.any() ? machines.size() : 0);
    for (auto& o : observers) o = std::make_unique<obs::SimObserver>(obs_opts);

    // Each machine's one lookup. A hit fills its rows, except under kVerify,
    // which keeps the stats it serves for the simulation to check.
    std::vector<std::size_t> unserved;
    std::vector<std::optional<GpuStats>> served(verify ? machines.size() : 0);
    for (std::size_t m = 0; m < machines.size(); ++m) {
      const WallTimer timer;
      if (cache) {
        SimResult hit;
        bool found;
        {
          prof::ScopedPhase prof_scope(obs::profiler(observer(m)), prof::Phase::kCacheLookup);
          found = cache->lookup(machines[m].key, nullptr, &hit);
        }
        if (found && !verify) {
          fill(m, hit.stats, true, timer);
          continue;
        }
        if (found) served[m] = hit.stats;
      }
      rows[machines[m].points.front()].wall_ms += timer.seconds() * 1000.0;
      unserved.push_back(m);
    }

    // Simulate each machine the store did not serve once, from its leader.
    // It is stored under its key, or under kVerify compared with the stats
    // its entry serves.
    const unsigned threads = options.threads == 0 ? default_threads() : options.threads;
    parallel_for(unserved.size(), threads, [&](std::size_t u) {
      const std::size_t m = unserved[u];
      const WallTimer timer;  // the leader's cell includes the simulation
      const SweepPoint& lead = spec.points[machines[m].points.front()];
      const SimResult r = simulate(lead.config, lead.kernel, observer(m));
      if (verify && served[m]) {
        // The fuzz oracle recast as an integrity check: what a warm entry
        // serves must equal a fresh simulation's stats.
        if (r.stats != *served[m]) {
          cache->note_verify_failure();
          throw std::runtime_error("result cache verify FAILED: stored entry " +
                                   cache->entry_path(machines[m].key) +
                                   " differs from re-simulating '" + lead.kernel.name +
                                   "' under " + lead.variant +
                                   " — the store is poisoned or the simulator changed without "
                                   "bumping the schema version (src/cache/key.h)");
        }
        cache->note_verified();
      } else if (cache && cache->mode() != cache::CacheMode::kRead) {
        prof::ScopedPhase prof_scope(obs::profiler(observer(m)), prof::Phase::kCacheStore);
        cache->store(machines[m].key, r);
      }
      fill(m, r.stats, false, timer);
    });
  } catch (...) {
    failure = std::current_exception();
  }

  // Counters and profiles are published however the sweep ends, so a failed
  // sweep still reports what it counted (a verify failure, say); profiles
  // merge in machine order, independent of the worker count.
  if (options.prof != nullptr) {
    options.prof->add_fingerprints_hashed(fingerprints.hashed());
    for (const auto& o : observers) options.prof->merge(*o->profiler());
  }
  if (cache && options.cache_stats != nullptr) *options.cache_stats += cache->stats();
  if (failure) std::rethrow_exception(failure);

  // Output files land on disk only after a complete sweep, so they are
  // byte-identical for any worker count. Every member's file repeats its
  // machine's stream: t never reaches the machine, so neither do the events.
  for (std::size_t m = 0; m < observers.size(); ++m) {
    const obs::SimObserver& o = *observers[m];
    for (const std::size_t i : machines[m].points) {
      if (obs_opts.trace) write_file(obs_point_path(options.trace_path, i, n), o.trace_json());
      if (obs_opts.timeline_interval != 0)
        write_file(obs_point_path(options.timeline_path, i, n), o.timeline_csv());
    }
  }
  return rows;
}

}  // namespace grs::runner
