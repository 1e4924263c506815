// Shared CLI option surface for the sweep-running frontends (grs_cli,
// grs_bench): one strict parser and one --help text source for the engine
// options they have in common — --threads/--filter/--out/--json,
// --exec-mode, the result-cache family --cache/--cache-mode, the
// observability family --trace/--timeline/--timeline-interval/--manifest,
// the host-profiling family --prof/--prof-folded, and --progress — so the
// scripts/check_docs.sh flag-drift check has a single origin and the two
// binaries can never disagree on spelling, validation, or semantics. One
// CliSession then runs every sweep of the invocation and writes its tail.
//
//   CommonOptions opts;
//   for (each arg) {
//     if (parse_common_flag(opts, kFlags, arg, next)) continue;  // consumed
//     ...binary-specific flags...
//   }
//   opts.finalize();                       // cross-flag validation
//   CliSession session("grs_bench", opts);
//   rows = session.run("fig8", spec);      // once per sweep; may throw
//   return session.finish();               // cache summary, --prof, --manifest
//
// The engine runs each point under one SimObserver whose pillars (trace,
// timeline, host-phase profiler) these flags select, and merges the
// per-point profiles into the session's one profile.
//
// Malformed values and inconsistent combinations throw UsageError; frontends
// catch it and exit through their own usage() path.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "common/config.h"
#include "common/types.h"
#include "prof/prof.h"
#include "runner/engine.h"
#include "runner/manifest.h"

namespace grs::runner {

/// A bad flag value or combination; what() is the user-facing message.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Which of the shared flags a binary accepts (--threads/--out and the
/// --cache family are universal).
struct CommonFlagSet {
  bool filter = false;
  bool json = false;
};

/// Parsed values of the shared flags.
struct CommonOptions {
  unsigned threads = 0;     ///< --threads (0 = hardware concurrency)
  std::string filter;       ///< --filter substring (when the set allows it)
  std::string out_csv;      ///< --out FILE
  std::string out_json;     ///< --json FILE (when the set allows it)
  /// --exec-mode: forced on every sweep point; unset keeps each config's own.
  std::optional<ExecMode> exec_mode;
  std::string cache_dir;    ///< --cache DIR ("" = caching off)
  cache::CacheMode cache_mode = cache::CacheMode::kReadWrite;  ///< --cache-mode
  bool cache_mode_set = false;

  // Observability (src/obs; docs/observability.md).
  std::string trace_path;     ///< --trace FILE
  std::string timeline_path;  ///< --timeline FILE
  Cycle timeline_interval = 1000;  ///< --timeline-interval N
  bool timeline_interval_set = false;
  std::string manifest_path;  ///< --manifest FILE

  // Host-phase profiling (src/prof; docs/perf-tracking.md).
  std::string prof_path;         ///< --prof FILE (JSON phase breakdown)
  std::string prof_folded_path;  ///< --prof-folded FILE (flamegraph input)

  bool progress = false;  ///< --progress (stderr completion ticker)

  /// True when this run collects trace events or timeline samples (which
  /// forces fresh simulation — see RunOptions).
  [[nodiscard]] bool obs_enabled() const {
    return !trace_path.empty() || !timeline_path.empty();
  }

  /// True when this run times host phases (the profiler pillar of each
  /// point's observer, merged by the engine; does NOT bypass the result
  /// cache).
  [[nodiscard]] bool prof_enabled() const {
    return !prof_path.empty() || !prof_folded_path.empty();
  }

  /// True when sweeps should consult the store.
  [[nodiscard]] bool cache_enabled() const {
    return !cache_dir.empty() && cache_mode != cache::CacheMode::kOff;
  }

  /// Cross-flag validation (call once after the argv loop): --cache-mode
  /// requires --cache; --timeline-interval requires --timeline.
  /// Throws UsageError.
  void finalize() const;

  /// Engine options carrying the threads + cache settings; `stats_out` (may
  /// be null) receives accumulated cache counters across run_sweep calls and
  /// `prof_out` (may be null) the merged host-phase profile. CliSession
  /// passes its own to every call, so one file covers the whole invocation
  /// no matter how many sweeps it runs.
  [[nodiscard]] RunOptions run_options(cache::CacheStats* stats_out = nullptr,
                                       prof::HostProfiler* prof_out = nullptr) const;
};

/// One CLI invocation's run tail: the cache counters, merged host-phase
/// profile and run manifest that every sweep it runs feeds.
class CliSession {
 public:
  /// `tool` names the binary: the manifest's "tool" and the "[tool]" tag of
  /// its stderr lines.
  CliSession(const std::string& tool, const CommonOptions& opts);

  /// run_sweep(spec) under the session's engine options, with a --progress
  /// ticker of its own, and with every point under --exec-mode when set.
  /// Records the sweep as `name` in the manifest when --manifest is set, and
  /// its wall clock in `*wall_seconds` (may be null). Exceptions from
  /// run_sweep propagate.
  std::vector<SweepRow> run(const std::string& name, SweepSpec spec,
                            double* wall_seconds = nullptr);

  /// Print the cache summary (when --cache is on) and write the --prof,
  /// --prof-folded and --manifest files. Returns the exit code: 0, or 2
  /// after printing the I/O error.
  [[nodiscard]] int finish();

 private:
  CommonOptions opts_;
  std::string tag_;  ///< "[tool]"
  cache::CacheStats cache_;
  prof::HostProfiler prof_;
  RunManifest manifest_;
};

/// Consume `arg` if it is one of the shared flags accepted by `set`; `next`
/// yields the following argv entry (and may itself throw/exit when absent).
/// Returns false when the flag is not one of ours. Strict values: numbers
/// must parse in full and in range (UsageError otherwise, never atoi-zero).
[[nodiscard]] bool parse_common_flag(CommonOptions& opts, const CommonFlagSet& set,
                                     const std::string& arg,
                                     const std::function<std::string()>& next);

/// The --help lines for the shared flags accepted by `set` (trailing
/// newline included) — the single help-text source both binaries print.
[[nodiscard]] std::string common_options_help(const CommonFlagSet& set);

}  // namespace grs::runner
