// GPU configuration (paper Table I) and sharing/optimization switches.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace grs {

/// Top-level simulation loop strategy. Both modes produce bit-identical
/// statistics; kEvent skips stretches of cycles in which no SM can issue
/// (common in memory-bound kernels) by jumping to the next timed wakeup.
enum class ExecMode : std::uint8_t {
  kCycle,  ///< naive loop: tick every SM every cycle
  kEvent,  ///< event-driven: bulk-skip provably idle cycle ranges
};

[[nodiscard]] constexpr const char* to_string(ExecMode m) {
  switch (m) {
    case ExecMode::kCycle: return "cycle";
    case ExecMode::kEvent: return "event";
  }
  return "?";
}

/// L2 pipeline (tag + data array) latency, part of every l2_hit_latency.
/// The remaining (l2_hit_latency - kL2PipeLatency) is split evenly between
/// the two interconnect traversals (memory/memsys.cc).
inline constexpr Cycle kL2PipeLatency = 40;

/// Configuration of the resource-sharing runtime (the paper's contribution).
struct SharingConfig {
  /// Master switch. When false blocks launch exactly as under the baseline
  /// GPGPU-Sim block launcher.
  bool enabled = false;

  /// Which resource is shared. The paper evaluates register sharing (Set-1)
  /// and scratchpad sharing (Set-2) separately.
  Resource resource = Resource::kRegisters;

  /// Threshold t in (0, 1]: a shared pair receives (1+t)*Rtb units of the
  /// shared resource, of which t*Rtb per block is private and (1-t)*Rtb is
  /// the shared pool (paper §III). Percentage of sharing = (1-t)*100.
  /// Paper default: t = 0.1 (90% sharing).
  double threshold_t = 0.1;

  /// Unrolling & reordering of register declarations (paper §IV-B): renumber
  /// kernel registers by first use before simulation.
  bool unroll_registers = false;

  /// Dynamic warp execution (paper §IV-C): stall-feedback throttling of
  /// non-owner memory instructions.
  bool dynamic_warp_execution = false;

  /// Dyn parameters (paper: monitor every 1000 cycles, step p = 0.1).
  Cycle dyn_period = 1000;
  double dyn_step = 0.1;

  [[nodiscard]] double sharing_percent() const { return (1.0 - threshold_t) * 100.0; }
};

/// Cache geometry.
struct CacheConfig {
  std::uint32_t size_bytes = 16 * 1024;
  std::uint32_t line_bytes = 128;
  std::uint32_t ways = 4;
  std::uint32_t mshr_entries = 64;  ///< distinct in-flight miss lines
  [[nodiscard]] std::uint32_t num_sets() const { return size_bytes / (line_bytes * ways); }
};

/// DRAM timing model (coarse FR-FCFS-like, see memory/dram.h).
struct DramConfig {
  std::uint32_t num_channels = 6;
  std::uint32_t banks_per_channel = 8;
  std::uint32_t row_bytes = 2048;
  /// Service occupancy of one 128B transaction at the bank (cycles).
  Cycle row_hit_service = 6;
  Cycle row_miss_service = 24;  ///< precharge + activate + CAS
  /// Flat latency added for request/response transit (off-chip + queues).
  Cycle base_latency = 150;
  /// FR-FCFS approximation: a request row-hits if its row is one of the last
  /// `row_window` rows touched in the bank (the scheduler batches row hits
  /// out of order, so recently-open rows serve cheaply even when requests
  /// from many warps interleave).
  std::uint32_t row_window = 4;
};

/// Full GPU configuration. Defaults reproduce paper Table I.
struct GpuConfig {
  // --- Table I ---------------------------------------------------------
  std::uint32_t num_sms = 14;              ///< 14 clusters x 1 core
  std::uint32_t max_blocks_per_sm = 8;
  std::uint32_t max_threads_per_sm = 1536;
  std::uint32_t registers_per_sm = 32768;
  std::uint32_t scratchpad_per_sm = 16 * 1024;  ///< bytes
  std::uint32_t warp_size = 32;
  std::uint32_t num_schedulers = 2;
  SchedulerKind scheduler = SchedulerKind::kLrr;
  CacheConfig l1;                           ///< 16KB per core
  CacheConfig l2{768 * 1024, 128, 8, 256};  ///< 768KB shared
  DramConfig dram;

  // --- Execution latencies (cycles) ------------------------------------
  Cycle alu_latency = 6;
  Cycle sfu_latency = 18;
  Cycle scratchpad_latency = 22;
  Cycle l1_hit_latency = 30;
  Cycle l2_hit_latency = 160;   ///< total from SM for an L1-miss/L2-hit

  // --- Structural limits -------------------------------------------------
  /// Memory instructions in flight per SM (LSU queue depth).
  std::uint32_t lsu_max_inflight = 96;
  /// SFU instructions accepted per SM per cycle.
  std::uint32_t sfu_issue_per_cycle = 1;
  /// Memory instructions accepted per SM per cycle (LSU issue port).
  std::uint32_t lsu_issue_per_cycle = 1;

  // --- Two-level scheduler ----------------------------------------------
  std::uint32_t two_level_group_size = 8;

  // --- Sharing ------------------------------------------------------------
  SharingConfig sharing;

  /// Hard cap to terminate runaway simulations (0 = unlimited).
  Cycle max_cycles = 0;

  /// Simulation loop strategy; statistics are bit-identical across modes.
  ExecMode exec_mode = ExecMode::kEvent;

  [[nodiscard]] std::uint32_t max_warps_per_sm() const {
    return max_threads_per_sm / warp_size;
  }

  /// Human-readable name of the experiment line this config encodes,
  /// e.g. "Shared-OWF-Unroll-Dyn" / "Unshared-LRR" (paper figure labels).
  [[nodiscard]] std::string line_label() const;

  /// Canonical key/value serialization: every configuration field, one
  /// "key value\n" line each, in a fixed order, behind a versioned header.
  /// Two configs produce the same text iff they would drive simulate()
  /// identically; this text is what fingerprint() hashes. Adding a field to
  /// GpuConfig (or its nested structs) without extending this codec fails the
  /// coverage guard in tests/test_cache.cc.
  [[nodiscard]] std::string canonical_kv() const;
  /// Appends the same text to `out`, so a caller keying many configs can
  /// reuse one buffer (cache::Fingerprints).
  void canonical_kv(std::string& out) const;

  /// Lowercase SHA-256 hex digest of canonical_kv() — the config half of the
  /// content-addressed result-cache key (src/cache/key.h).
  [[nodiscard]] std::string fingerprint() const;

  /// Abort-with-message validation of internal consistency.
  void validate() const;
};

/// Named experiment lines from the paper's figures.
namespace configs {

/// Baseline: no sharing, chosen scheduler (paper "Unshared-LRR" etc.).
[[nodiscard]] GpuConfig unshared(SchedulerKind sched = SchedulerKind::kLrr);

/// Sharing enabled on `res`, no optimizations, LRR ("Shared-LRR-NoOpt").
[[nodiscard]] GpuConfig shared_noopt(Resource res, double t = 0.1);

/// Sharing + unroll ("Shared-LRR-Unroll").
[[nodiscard]] GpuConfig shared_unroll(Resource res, double t = 0.1);

/// Sharing + unroll + dynamic warp execution ("Shared-LRR-Unroll-Dyn").
[[nodiscard]] GpuConfig shared_unroll_dyn(Resource res, double t = 0.1);

/// Full register-sharing line ("Shared-OWF-Unroll-Dyn").
[[nodiscard]] GpuConfig shared_owf_unroll_dyn(Resource res, double t = 0.1);

/// Full scratchpad-sharing line ("Shared-OWF"; paper applies unroll/dyn only
/// to register sharing).
[[nodiscard]] GpuConfig shared_owf(Resource res, double t = 0.1);

}  // namespace configs

}  // namespace grs
