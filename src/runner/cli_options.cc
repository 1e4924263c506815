#include "runner/cli_options.h"

#include <algorithm>
#include <cstdio>

#include "common/clock.h"
#include "common/parse.h"
#include "runner/progress.h"

namespace grs::runner {

void CommonOptions::finalize() const {
  if (cache_mode_set && cache_dir.empty())
    throw UsageError("--cache-mode only applies together with --cache DIR");
  if (timeline_interval_set && timeline_path.empty())
    throw UsageError("--timeline-interval only applies together with --timeline FILE");
}

RunOptions CommonOptions::run_options(cache::CacheStats* stats_out,
                                      prof::HostProfiler* prof_out) const {
  RunOptions run;
  run.threads = threads;
  run.cache_dir = cache_dir;
  run.cache_mode = cache_dir.empty() ? cache::CacheMode::kOff : cache_mode;
  run.cache_stats = stats_out;
  run.trace_path = trace_path;
  run.timeline_path = timeline_path;
  run.timeline_interval = timeline_interval;
  run.prof = prof_enabled() ? prof_out : nullptr;
  return run;
}

CliSession::CliSession(const std::string& tool, const CommonOptions& opts)
    : opts_(opts), tag_("[" + tool + "]"), manifest_(tool) {}

std::vector<SweepRow> CliSession::run(const std::string& name, SweepSpec spec,
                                      double* wall_seconds) {
  if (opts_.exec_mode.has_value())
    for (SweepPoint& p : spec.points) p.config.exec_mode = *opts_.exec_mode;
  RunOptions options = opts_.run_options(&cache_, &prof_);
  ProgressTicker ticker(tag_.c_str());
  if (opts_.progress)
    options.progress = [&ticker](std::size_t done, std::size_t total) {
      ticker.update(done, total);
    };
  const WallTimer timer;
  std::vector<SweepRow> rows = run_sweep(spec, options);
  const double secs = timer.seconds();
  if (wall_seconds != nullptr) *wall_seconds = secs;
  if (!opts_.manifest_path.empty()) {
    const std::size_t t = opts_.threads == 0 ? default_threads() : opts_.threads;
    const auto threads = static_cast<unsigned>(std::min(t, std::max<std::size_t>(rows.size(), 1)));
    manifest_.add_sweep(name, rows, secs, threads);
  }
  return rows;
}

int CliSession::finish() {
  if (opts_.cache_enabled())
    std::fprintf(stderr, "%s cache: %s\n", tag_.c_str(), cache_.summary().c_str());
  try {
    prof::write_prof_outputs(prof_, opts_.prof_path, opts_.prof_folded_path);
    if (!opts_.manifest_path.empty()) {
      if (opts_.cache_enabled()) manifest_.set_cache_stats(cache_);
      manifest_.write(opts_.manifest_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

bool parse_common_flag(CommonOptions& opts, const CommonFlagSet& set, const std::string& arg,
                       const std::function<std::string()>& next) {
  if (arg == "--threads") {
    const std::string value = next();
    const auto v = parse_u32(value);
    if (!v.has_value())
      throw UsageError("--threads expects a non-negative integer, got '" + value + "'");
    opts.threads = *v;
    return true;
  }
  if (set.filter && arg == "--filter") {
    opts.filter = next();
    return true;
  }
  if (arg == "--out") {
    opts.out_csv = next();
    return true;
  }
  if (set.json && arg == "--json") {
    opts.out_json = next();
    return true;
  }
  if (arg == "--exec-mode") {
    const std::string value = next();
    if (value == "cycle") {
      opts.exec_mode = ExecMode::kCycle;
    } else if (value == "event") {
      opts.exec_mode = ExecMode::kEvent;
    } else {
      throw UsageError("unknown --exec-mode '" + value + "' (cycle | event)");
    }
    return true;
  }
  if (arg == "--cache") {
    opts.cache_dir = next();
    if (opts.cache_dir.empty()) throw UsageError("--cache expects a directory");
    return true;
  }
  if (arg == "--cache-mode") {
    const std::string value = next();
    const auto m = cache::parse_cache_mode(value);
    if (!m.has_value())
      throw UsageError("unknown --cache-mode '" + value + "' (off | read | readwrite | verify)");
    opts.cache_mode = *m;
    opts.cache_mode_set = true;
    return true;
  }
  if (arg == "--trace") {
    opts.trace_path = next();
    if (opts.trace_path.empty()) throw UsageError("--trace expects a file name");
    return true;
  }
  if (arg == "--timeline") {
    opts.timeline_path = next();
    if (opts.timeline_path.empty()) throw UsageError("--timeline expects a file name");
    return true;
  }
  if (arg == "--timeline-interval") {
    const std::string value = next();
    const auto v = parse_u32(value);
    if (!v.has_value() || *v == 0)
      throw UsageError("--timeline-interval expects a positive cycle count, got '" + value +
                       "'");
    opts.timeline_interval = *v;
    opts.timeline_interval_set = true;
    return true;
  }
  if (arg == "--manifest") {
    opts.manifest_path = next();
    if (opts.manifest_path.empty()) throw UsageError("--manifest expects a file name");
    return true;
  }
  if (arg == "--prof") {
    opts.prof_path = next();
    if (opts.prof_path.empty()) throw UsageError("--prof expects a file name");
    return true;
  }
  if (arg == "--prof-folded") {
    opts.prof_folded_path = next();
    if (opts.prof_folded_path.empty()) throw UsageError("--prof-folded expects a file name");
    return true;
  }
  if (arg == "--progress") {
    opts.progress = true;
    return true;
  }
  return false;
}

std::string common_options_help(const CommonFlagSet& set) {
  std::string out;
  out +=
      "  --threads N       worker threads (default: hardware concurrency);\n"
      "                    results are byte-identical for any value\n";
  if (set.filter)
    out +=
        "  --filter SUBSTR   only kernels whose name contains SUBSTR\n"
        "                    (case-insensitive); benches with no per-kernel\n"
        "                    simulation (fig1, hw_cost) print in full regardless\n";
  out += "  --out FILE        write CSV rows of every sweep point to FILE\n";
  if (set.json)
    out += "  --json FILE       write the same rows as a JSON array to FILE\n";
  out +=
      "  --exec-mode M     cycle | event: run every sweep point under that loop\n"
      "                    (default: each config's own, event); stats are\n"
      "                    bit-identical either way\n"
      "  --cache DIR       content-addressed result cache under DIR: sweep\n"
      "                    points are keyed on hash(kernel, config, schema)\n"
      "                    and reused across runs (docs/result-cache.md)\n"
      "  --cache-mode M    off | read | readwrite | verify (default readwrite;\n"
      "                    verify re-simulates hits and fails on any stats diff)\n"
      "  --trace FILE      write a Chrome-trace/Perfetto JSON of every sweep\n"
      "                    point (multi-point sweeps write FILE.0, FILE.1, ...);\n"
      "                    forces fresh simulation, bypassing --cache\n"
      "  --timeline FILE   write a per-SM counter timeline CSV per sweep point\n"
      "                    (same per-point naming; byte-identical across\n"
      "                    --threads and exec modes — docs/observability.md)\n"
      "  --timeline-interval N   timeline sample period in cycles (default 1000)\n"
      "  --manifest FILE   write run telemetry JSON: wall clock per cell,\n"
      "                    sims/sec, pool utilization, cache counters,\n"
      "                    host + config fingerprints\n"
      "  --prof FILE       write a host-phase profile JSON: where the wall\n"
      "                    clock goes inside simulation (scheduler scan, issue,\n"
      "                    memory system, ... — docs/perf-tracking.md); never\n"
      "                    changes sim stats\n"
      "  --prof-folded FILE  write folded-stack lines for flamegraph tools\n"
      "                    (flamegraph.pl, speedscope)\n"
      "  --progress        print a completion ticker to stderr as sweep\n"
      "                    points finish\n";
  return out;
}

}  // namespace grs::runner
