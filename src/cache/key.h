// Content-addressed cache keys: the canonical fingerprint of one simulation.
//
// simulate() is pure and bit-deterministic (the repo's fuzz-verified core
// invariant), so one result is fully determined by (kernel, config,
// simulator schema). The key hashes exactly those three:
//
//   key = sha256( "grs-result-cache <schema_tag>\n"
//                 "config <GpuConfig::fingerprint()>\n"
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
#pragma once

#include <string>

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

/// The full 64-hex-digit content-addressed key for one simulation.
[[nodiscard]] std::string result_cache_key(const GpuConfig& cfg, const KernelInfo& kernel);

/// SHA-256 hex of exactly what simulate() builds its machine from:
/// machine_config(cfg).fingerprint(), the resolved Occupancy less its
/// t-dependent pre-cap diagnostic eq4_blocks, and kernel_fingerprint(kernel).
/// Points with equal machine keys differ at most in the sharing threshold t,
/// so they produce identical GpuStats; runner::run_sweep simulates each
/// distinct machine key once. Not a store key: the cache stays keyed per
/// point on result_cache_key().
[[nodiscard]] std::string machine_key(const GpuConfig& cfg, const KernelInfo& kernel);

}  // namespace grs::cache
