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
// Pay per machine, not per point. A sweep has far fewer distinct kernels
// and configs than points (the full sharing study: 1152 points, 117 kernel
// texts, 2 machine config texts), so runner::run_sweep keys its points
// through one Fingerprints memo. Each of its maps is keyed on something that
// proves the equality it relies on, so every hit is exact by construction
// and no equality on KernelInfo or GpuConfig has to track their fields:
//
//   - kernel: the program storage's identity (isa/program.h; copies of a
//     KernelInfo share it) plus gkd::serialize_header(), which renders every
//     other field. Equal storage means equal segments, so equal keys mean
//     equal .gkd text. The memo holds a reference to each storage it keys,
//     so that address cannot be reused by another program while it lives;
//   - config: machine_config(cfg)'s object representation. GpuConfig is
//     trivially copyable and holds no pointers, so equal bytes mean equal
//     fields and equal canonical_kv(). Padding can make equal configs
//     differ in bytes, which costs a miss, never a wrong hit;
//   - key: the key material below, hashed once per distinct material.
//
// A miss builds the canonical text (gkd::serialize(), canonical_kv()) and
// hashes it only if those bytes are new, so hashed() still counts each
// distinct text once. The free functions below keep no memo: they hash the
// canonical text and the key material directly, and build the material with
// the function the memo uses, so there is one field list. On perfbench's
// warm 216-point study slice (Release, gcc 12, a shared 4-vCPU Xeon VM)
// keying fell from about 1.0 ms to 0.42 ms per regeneration; what is left is
// sha256 over its 27 texts and 100 key materials (docs/result-cache.md).
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

/// The memo behind every key above; see the file comment. Not thread-safe;
/// run_sweep keeps one per call, on the calling thread.
class Fingerprints {
 public:
  /// Each returns what the free function of its name (config_fingerprint:
  /// cfg.fingerprint()) returns, building and hashing only what this memo
  /// has not seen.
  [[nodiscard]] const std::string& kernel_fingerprint(const KernelInfo& kernel);
  [[nodiscard]] const std::string& config_fingerprint(const GpuConfig& cfg);
  [[nodiscard]] const std::string& result_cache_key(const GpuConfig& cfg,
                                                    const KernelInfo& kernel);

  /// Canonical texts hashed so far: one per distinct text.
  [[nodiscard]] std::uint64_t hashed() const { return sha_of_.size(); }

 private:
  /// The sha256 hex of text_, hashed only if these bytes are new.
  const std::string& memo();

  /// A kernel's fingerprint in sha_of_, and the storage its key names.
  struct KernelMemo {
    Program::Storage storage;
    const std::string* fingerprint;
  };

  /// The canonical text being keyed; one buffer reused across calls.
  std::string text_;
  /// The identity or key material being looked up; one reused buffer.
  std::string id_;
  /// Each canonical text seen, mapped to its sha256 hex.
  std::unordered_map<std::string, std::string> sha_of_;
  /// Storage address + header text -> the kernel's fingerprint.
  std::unordered_map<std::string, KernelMemo> kernel_of_;
  /// GpuConfig object bytes -> the config's fingerprint in sha_of_.
  std::unordered_map<std::string, const std::string*> config_of_;
  /// Key material -> its sha256 hex, the result-cache key.
  std::unordered_map<std::string, std::string> key_of_;
};

}  // namespace grs::cache
