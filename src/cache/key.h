// Content-addressed cache keys: the canonical fingerprint of one machine.
//
// simulate() is pure and bit-deterministic (the repo's fuzz-verified core
// invariant), and the sharing threshold t reaches the machine only through
// the resolved launch plan (gpu/simulator.h). So the key hashes exactly what
// the machine is built from, and points that differ only in t and resolve to
// the same plan share one key, one simulation and one store entry:
//
//   key = sha256( "grs-result-cache <schema_tag>\n"
//                 "config <machine_config(cfg).fingerprint()>\n"
//                 "plan <the resolved Occupancy less eq4_blocks>\n"
//                 "kernel <sha256(gkd::serialize(kernel))>\n" )
//
// The kernel half rides on the canonical .gkd serialization (workloads/
// format), which already round-trips byte-identically; any instruction,
// resource, or grid change reaches the key through it. The config half is
// GpuConfig::canonical_kv() (every field, stable order, versioned). The
// schema tag folds in kSimSchemaVersion (simulator semantics) and
// kResultCodecVersion (payload layout), so a store can never serve entries
// written under different semantics — stale versions simply live under a
// different subdirectory until deleted.
//
// Hash each text once. A sweep has far fewer distinct kernels and configs
// than points (the full sharing study: 1152 points, 117 kernel texts, 2
// machine config texts), so runner::run_sweep keys its points through one
// Fingerprints memo. The memo maps each canonical text (gkd::serialize(),
// canonical_kv()) to its sha256: the text is still built per point, into one
// reused buffer, but hashed only the first time those bytes appear. Keying
// the memo by the exact bytes it hashes makes a hit correct by construction:
// no equality on KernelInfo or GpuConfig has to be kept in sync with their
// fields. The free functions below run the same code through a fresh memo,
// so there is one key path.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/config.h"
#include "workloads/kernel_info.h"

namespace grs::cache {

/// Bump when simulate()'s observable statistics change for any (config,
/// kernel) — a new stat, a model fix, a semantic change. Cache entries
/// written under other versions are unreachable afterwards.
inline constexpr int kSimSchemaVersion = 1;

/// "v<sim>-r<codec>", e.g. "v1-r1": the store subdirectory for this schema.
[[nodiscard]] std::string schema_tag();

/// SHA-256 hex of the kernel's canonical .gkd serialization.
[[nodiscard]] std::string kernel_fingerprint(const KernelInfo& kernel);

/// The full 64-hex-digit content-addressed key of the machine simulate()
/// builds for (cfg, kernel); see the file comment.
[[nodiscard]] std::string result_cache_key(const GpuConfig& cfg, const KernelInfo& kernel);

/// The memo behind every key above: each distinct canonical text is hashed
/// once per Fingerprints object. Not thread-safe; run_sweep keeps one per
/// call, on the calling thread.
class Fingerprints {
 public:
  /// Each returns what the free function of its name (config_fingerprint:
  /// cfg.fingerprint()) returns, hashing only the texts this memo has not
  /// seen.
  [[nodiscard]] const std::string& kernel_fingerprint(const KernelInfo& kernel);
  [[nodiscard]] const std::string& config_fingerprint(const GpuConfig& cfg);
  [[nodiscard]] std::string result_cache_key(const GpuConfig& cfg, const KernelInfo& kernel);

  /// Canonical texts hashed so far: one per distinct text.
  [[nodiscard]] std::uint64_t hashed() const { return sha_of_.size(); }

 private:
  /// The sha256 hex of text_, hashed only if these bytes are new.
  const std::string& memo();

  /// The canonical text being keyed; one buffer reused across calls.
  std::string text_;
  /// Each canonical text seen, mapped to its sha256 hex.
  std::unordered_map<std::string, std::string> sha_of_;
};

}  // namespace grs::cache
