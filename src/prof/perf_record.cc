#include "prof/perf_record.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "common/buildinfo.h"
#include "common/clock.h"
#include "common/json.h"
#include "prof/prof.h"
#include "runner/engine.h"

namespace grs::prof {

namespace {

void put_str(std::string& out, const char* key, const std::string& value) {
  out += '"';
  out += key;
  out += "\":";
  append_json_string(out, value);
}

/// Median of an odd-or-even sized sample (midpoint average when even).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace

std::string record_perf(const std::vector<PerfSuitePoint>& suite,
                        const PerfRecordOptions& options) {
  if (suite.empty()) throw std::runtime_error("perf record: empty suite");
  if (options.reps < 1) throw std::runtime_error("perf record: --perf-reps must be >= 1");

  std::string points_json = "[";
  for (std::size_t s = 0; s < suite.size(); ++s) {
    const PerfSuitePoint& pt = suite[s];
    if (pt.spec.empty())
      throw std::runtime_error("perf record: suite point '" + pt.name + "' has no sweep points");

    runner::RunOptions run;
    run.threads = options.threads;

    // Timed reps run unprofiled so hook overhead never skews wall_ms.
    std::vector<double> wall_ms;
    wall_ms.reserve(static_cast<std::size_t>(options.reps));
    std::uint64_t cycles = 0;
    for (int r = 0; r < options.reps; ++r) {
      const WallTimer timer;
      const std::vector<runner::SweepRow> rows = runner::run_sweep(pt.spec, run);
      wall_ms.push_back(timer.seconds() * 1000.0);
      std::uint64_t c = 0;
      for (const runner::SweepRow& row : rows) c += row.result.stats.cycles;
      if (r == 0) {
        cycles = c;
      } else if (c != cycles) {
        // simulate() is bit-deterministic; a rep-to-rep cycle diff means the
        // build is broken, and any timing from it is meaningless.
        throw std::runtime_error("perf record: non-deterministic cycles on suite point '" +
                                 pt.name + "'");
      }
      if (options.verbose)
        std::fprintf(stderr, "[perf] %-24s rep %d/%d: %.1f ms\n", pt.name.c_str(), r + 1,
                     options.reps, wall_ms.back());
    }

    // One extra profiled rep supplies the phase breakdown.
    HostProfiler prof;
    run.prof = &prof;
    (void)runner::run_sweep(pt.spec, run);

    const double med = median(wall_ms);
    if (s != 0) points_json += ',';
    points_json += '{';
    put_str(points_json, "name", pt.name);
    char tmp[96];
    std::snprintf(tmp, sizeof tmp,
                  ",\"sweep_points\":%zu,\"reps\":%d,\"wall_ms\":%.3f,"
                  "\"sims_per_sec\":%.3f,\"cycles\":%" PRIu64 ",\"phases\":",
                  pt.spec.size(), options.reps, med,
                  med > 0.0 ? static_cast<double>(pt.spec.size()) * 1000.0 / med : 0.0, cycles);
    points_json += tmp;
    points_json += prof.phases_json();
    points_json += '}';
  }
  points_json += ']';

  const BuildInfo& build = build_info();
  std::string out = "{";
  put_str(out, "schema", "grs-perf-record-v1");
  out += ',';
  put_str(out, "host_fingerprint", host_fingerprint());
  out += ',';
  put_str(out, "git_commit", build.git_commit);
  out += ",\"git_dirty\":";
  out += build.git_dirty ? "true" : "false";
  out += ',';
  put_str(out, "build_type", build.build_type);
  char tmp[48];
  std::snprintf(tmp, sizeof tmp, ",\"threads\":%u,", options.threads);
  out += tmp;
  out += "\"points\":";
  out += points_json;
  out += "}\n";
  return out;
}

}  // namespace grs::prof
