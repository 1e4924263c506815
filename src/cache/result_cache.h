// Persistent on-disk, content-addressed store for SimResults.
//
// Layout (all under one root directory, safe to share between concurrent
// processes and threads):
//
//   <dir>/<schema_tag>/<key[0:2]>/<key>.grsr
//
// where <key> is result_cache_key(config, kernel) (cache/key.h), one key per
// machine, and the file body is exactly encode_result(result)
// (gpu/result_codec.h) of the first point that stored it — a versioned,
// self-describing text payload whose strict decoder treats any truncated,
// corrupted, or reordered entry as a miss, never an error. Writes go through
// a unique temp file in the final directory followed by rename(), so readers
// only ever observe absent or complete entries, and racing writers of the
// same key both land a full payload with the same stats.
//
// Modes:
//   kOff        never touches the store (the differential fuzz oracle runs
//               here: a cached result would mask a cycle/event divergence)
//   kRead       lookups only; misses simulate but are not stored
//   kReadWrite  lookups + atomic stores on miss (the default for --cache)
//   kVerify     like kReadWrite, but every hit is re-simulated (once per
//               machine, runner/engine.h) and the stats it serves compared
//               with the fresh simulation's — the fuzz bit-identity oracle
//               recast as a cache-integrity check; any difference is a hard
//               failure
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "common/config.h"
#include "gpu/simulator.h"
#include "workloads/kernel_info.h"

namespace grs::cache {

enum class CacheMode : std::uint8_t { kOff, kRead, kReadWrite, kVerify };

[[nodiscard]] constexpr const char* to_string(CacheMode m) {
  switch (m) {
    case CacheMode::kOff: return "off";
    case CacheMode::kRead: return "read";
    case CacheMode::kReadWrite: return "readwrite";
    case CacheMode::kVerify: return "verify";
  }
  return "?";
}

/// The --cache-mode spellings; nullopt on anything else.
[[nodiscard]] std::optional<CacheMode> parse_cache_mode(const std::string& s);

/// Counters for one run; aggregated across benches by the CLIs.
struct CacheStats {
  std::uint64_t hits = 0;             ///< well-formed entries served
  std::uint64_t misses = 0;           ///< absent entries (simulated fresh)
  std::uint64_t corrupt = 0;          ///< present but undecodable (treated as miss)
  std::uint64_t stores = 0;           ///< entries written
  std::uint64_t verified = 0;         ///< verify-mode hits whose stats re-simulation matched
  std::uint64_t verify_failures = 0;  ///< verify-mode stats differences (fatal)
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  CacheStats& operator+=(const CacheStats& o);

  /// One-line human summary, e.g. "420 hits, 36 misses, 36 stored, ...".
  [[nodiscard]] std::string summary() const;
};

class ResultCache {
 public:
  /// Opens (lazily creating) the store under `dir`. `mode` must not be kOff —
  /// callers skip constructing a cache entirely when caching is off.
  ResultCache(std::string dir, CacheMode mode);

  [[nodiscard]] CacheMode mode() const { return mode_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Absolute/relative path of `key`'s entry inside the store.
  [[nodiscard]] std::string entry_path(const std::string& key) const;

  /// Look up `key`. True only for a present, fully well-formed entry:
  /// `payload` receives the exact stored bytes and `result` the decoded
  /// stats/occupancy (result.config is NOT restored, and the occupancy is
  /// the storing point's: the engine serves only the stats). Absent entries
  /// count as misses; present-but-undecodable ones as corrupt (also a miss),
  /// as does a read error or a short read. The entry costs one open, one
  /// read sized by fstat and one close, and is decoded in place. Either out
  /// pointer may be null.
  [[nodiscard]] bool lookup(const std::string& key, std::string* payload, SimResult* result);

  /// Atomically store encode_result(result) under `key` (tmp + rename; safe
  /// under concurrent writers). I/O failures throw std::runtime_error.
  void store(const std::string& key, const SimResult& result);

  /// Count one verify-mode outcome (the engine drives verification so it can
  /// also own the re-simulation).
  void note_verified() { verified_.fetch_add(1, std::memory_order_relaxed); }
  void note_verify_failure() { verify_failures_.fetch_add(1, std::memory_order_relaxed); }

  /// Snapshot of the counters so far.
  [[nodiscard]] CacheStats stats() const;

 private:
  std::string dir_;
  CacheMode mode_;
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, corrupt_{0}, stores_{0};
  std::atomic<std::uint64_t> verified_{0}, verify_failures_{0};
  std::atomic<std::uint64_t> bytes_read_{0}, bytes_written_{0};
  std::atomic<std::uint64_t> tmp_seq_{0};  ///< uniquifies temp file names
};

}  // namespace grs::cache
