#include "runner/manifest.h"

#include <cinttypes>
#include <cstdio>
#include <thread>

#include "common/buildinfo.h"
#include "common/io.h"
#include "common/json.h"

namespace grs::runner {

namespace {

void put(std::string& out, const char* key, const std::string& value) {
  out += '"';
  out += key;
  out += "\":";
  append_json_string(out, value);
}

void put(std::string& out, const char* key, std::uint64_t value) {
  char tmp[48];
  std::snprintf(tmp, sizeof tmp, "\"%s\":%" PRIu64, key, value);
  out += tmp;
}

void put(std::string& out, const char* key, double value) {
  char tmp[64];
  std::snprintf(tmp, sizeof tmp, "\"%s\":%.6f", key, value);
  out += tmp;
}

}  // namespace

void RunManifest::add_sweep(const std::string& name, const std::vector<SweepRow>& rows,
                            double wall_seconds, unsigned threads) {
  Sweep s;
  s.name = name;
  s.threads = threads;
  s.wall_seconds = wall_seconds;
  s.sims_per_second =
      wall_seconds > 0.0 ? static_cast<double>(rows.size()) / wall_seconds : 0.0;
  double cell_wall_ms = 0.0;
  s.cells.reserve(rows.size());
  for (const SweepRow& r : rows) {
    Cell c;
    c.variant = r.point.variant;
    c.kernel = r.point.kernel.name;
    c.config_fingerprint = r.point.config.fingerprint();
    c.wall_ms = r.wall_ms;
    c.from_cache = r.from_cache;
    c.cycles = r.result.stats.cycles;
    c.ipc = r.result.stats.ipc();
    cell_wall_ms += r.wall_ms;
    s.cells.push_back(std::move(c));
  }
  if (threads > 0 && wall_seconds > 0.0)
    s.pool_utilization = cell_wall_ms / 1000.0 / (threads * wall_seconds);
  sweeps_.push_back(std::move(s));
}

void RunManifest::set_cache_stats(const cache::CacheStats& stats) {
  has_cache_ = true;
  cache_ = stats;
}

std::string RunManifest::to_json() const {
  std::string out = "{";
  put(out, "schema", std::string("grs-run-manifest-v1"));
  out += ',';
  put(out, "tool", tool_);
  const BuildInfo& build = build_info();
  out += ",\"host\":{";
  put(out, "hostname", build.hostname);
  out += ',';
  put(out, "hardware_threads", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  out += ',';
  put(out, "compiler", build.compiler);
  out += ',';
  // Attribution (ISSUE 9): which commit/build produced these numbers.
  put(out, "git_commit", build.git_commit);
  out += ",\"git_dirty\":";
  out += build.git_dirty ? "true" : "false";
  out += ',';
  put(out, "build_type", build.build_type);
  out += "}";
  if (has_cache_) {
    out += ",\"cache\":{";
    put(out, "summary", cache_.summary());
    out += ',';
    put(out, "hits", cache_.hits);
    out += ',';
    put(out, "misses", cache_.misses);
    out += ',';
    put(out, "corrupt", cache_.corrupt);
    out += ',';
    put(out, "stores", cache_.stores);
    out += ',';
    put(out, "verified", cache_.verified);
    out += ',';
    put(out, "verify_failures", cache_.verify_failures);
    out += ',';
    put(out, "bytes_read", cache_.bytes_read);
    out += ',';
    put(out, "bytes_written", cache_.bytes_written);
    out += "}";
  }
  out += ",\"sweeps\":[";
  for (std::size_t i = 0; i < sweeps_.size(); ++i) {
    const Sweep& s = sweeps_[i];
    if (i != 0) out += ',';
    out += "{";
    put(out, "name", s.name);
    out += ',';
    put(out, "threads", static_cast<std::uint64_t>(s.threads));
    out += ',';
    put(out, "wall_seconds", s.wall_seconds);
    out += ',';
    put(out, "sims_per_second", s.sims_per_second);
    out += ',';
    put(out, "pool_utilization", s.pool_utilization);
    out += ",\"cells\":[";
    for (std::size_t j = 0; j < s.cells.size(); ++j) {
      const Cell& c = s.cells[j];
      if (j != 0) out += ',';
      out += "{";
      put(out, "variant", c.variant);
      out += ',';
      put(out, "kernel", c.kernel);
      out += ',';
      put(out, "config_fingerprint", c.config_fingerprint);
      out += ',';
      put(out, "wall_ms", c.wall_ms);
      out += ',';
      out += "\"from_cache\":";
      out += c.from_cache ? "true" : "false";
      out += ',';
      put(out, "cycles", c.cycles);
      out += ',';
      put(out, "ipc", c.ipc);
      out += "}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

void RunManifest::write(const std::string& path) const { write_file(path, to_json()); }

}  // namespace grs::runner
