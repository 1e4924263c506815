#include "common/config.h"

#include "common/check.h"
#include "common/format.h"
#include "common/hash.h"

namespace grs {

namespace {

/// Canonical "key value" lines for the kv codec, appended to one buffer.
/// Integers print in decimal; doubles as %.17g (common/format.h).
void kv(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  out += ' ';
  append_u64(out, v);
  out += '\n';
}

void kv(std::string& out, const char* key, double v) {
  out += key;
  out += ' ';
  append_exact(out, v);
  out += '\n';
}

void kv(std::string& out, const char* key, const char* v) {
  out += key;
  out += ' ';
  out += v;
  out += '\n';
}

void kv_cache(std::string& out, const char* prefix, const CacheConfig& c) {
  out += prefix;
  kv(out, ".size_bytes", std::uint64_t{c.size_bytes});
  out += prefix;
  kv(out, ".line_bytes", std::uint64_t{c.line_bytes});
  out += prefix;
  kv(out, ".ways", std::uint64_t{c.ways});
  out += prefix;
  kv(out, ".mshr_entries", std::uint64_t{c.mshr_entries});
}

}  // namespace

std::string GpuConfig::line_label() const {
  std::string s = sharing.enabled ? "Shared" : "Unshared";
  s += "-";
  s += to_string(scheduler);
  if (sharing.enabled) {
    if (sharing.unroll_registers) s += "-Unroll";
    if (sharing.dynamic_warp_execution) s += "-Dyn";
  }
  return s;
}

std::string GpuConfig::canonical_kv() const {
  std::string out;
  out.reserve(1024);
  canonical_kv(out);
  return out;
}

void GpuConfig::canonical_kv(std::string& out) const {
  // Versioned header: bump when a field is added/removed/re-interpreted so
  // old fingerprints can never alias new configurations.
  out += "gpu_config 2\n";
  // --- Table I ---------------------------------------------------------
  kv(out, "num_sms", std::uint64_t{num_sms});
  kv(out, "max_blocks_per_sm", std::uint64_t{max_blocks_per_sm});
  kv(out, "max_threads_per_sm", std::uint64_t{max_threads_per_sm});
  kv(out, "registers_per_sm", std::uint64_t{registers_per_sm});
  kv(out, "scratchpad_per_sm", std::uint64_t{scratchpad_per_sm});
  kv(out, "warp_size", std::uint64_t{warp_size});
  kv(out, "num_schedulers", std::uint64_t{num_schedulers});
  kv(out, "scheduler", to_string(scheduler));
  kv_cache(out, "l1", l1);
  kv_cache(out, "l2", l2);
  kv(out, "dram.num_channels", std::uint64_t{dram.num_channels});
  kv(out, "dram.banks_per_channel", std::uint64_t{dram.banks_per_channel});
  kv(out, "dram.row_bytes", std::uint64_t{dram.row_bytes});
  kv(out, "dram.row_hit_service", std::uint64_t{dram.row_hit_service});
  kv(out, "dram.row_miss_service", std::uint64_t{dram.row_miss_service});
  kv(out, "dram.base_latency", std::uint64_t{dram.base_latency});
  kv(out, "dram.row_window", std::uint64_t{dram.row_window});
  // --- Execution latencies ---------------------------------------------
  kv(out, "alu_latency", std::uint64_t{alu_latency});
  kv(out, "sfu_latency", std::uint64_t{sfu_latency});
  kv(out, "scratchpad_latency", std::uint64_t{scratchpad_latency});
  kv(out, "l1_hit_latency", std::uint64_t{l1_hit_latency});
  kv(out, "l2_hit_latency", std::uint64_t{l2_hit_latency});
  // --- Structural limits -----------------------------------------------
  kv(out, "lsu_max_inflight", std::uint64_t{lsu_max_inflight});
  kv(out, "sfu_issue_per_cycle", std::uint64_t{sfu_issue_per_cycle});
  kv(out, "lsu_issue_per_cycle", std::uint64_t{lsu_issue_per_cycle});
  kv(out, "two_level_group_size", std::uint64_t{two_level_group_size});
  // --- Sharing ---------------------------------------------------------
  kv(out, "sharing.enabled", std::uint64_t{sharing.enabled});
  kv(out, "sharing.resource", to_string(sharing.resource));
  kv(out, "sharing.threshold_t", sharing.threshold_t);
  kv(out, "sharing.unroll_registers", std::uint64_t{sharing.unroll_registers});
  kv(out, "sharing.dynamic_warp_execution", std::uint64_t{sharing.dynamic_warp_execution});
  kv(out, "sharing.dyn_period", std::uint64_t{sharing.dyn_period});
  kv(out, "sharing.dyn_step", sharing.dyn_step);
  // --- Run limits / loop strategy --------------------------------------
  kv(out, "max_cycles", std::uint64_t{max_cycles});
  // exec_mode participates even though both modes are (fuzz-)proven to
  // produce bit-identical stats: the cache must never paper over the exact
  // divergence the differential oracle exists to catch.
  kv(out, "exec_mode", to_string(exec_mode));
}

std::string GpuConfig::fingerprint() const { return sha256_hex(canonical_kv()); }

void GpuConfig::validate() const {
  GRS_CHECK(num_sms >= 1);
  GRS_CHECK(warp_size >= 1);
  GRS_CHECK(max_threads_per_sm % warp_size == 0);
  GRS_CHECK(num_schedulers >= 1);
  GRS_CHECK(max_warps_per_sm() >= num_schedulers);
  GRS_CHECK(l1.line_bytes == l2.line_bytes);
  GRS_CHECK(l1.num_sets() >= 1);
  GRS_CHECK(l2.num_sets() >= 1);
  // The SM-observed L2 hit latency decomposes into the L2 pipeline plus two
  // equal interconnect traversals; anything below the pipeline latency would
  // wrap the unsigned transit computation in MemorySystem::access to ~2^63.
  GRS_CHECK_MSG(l2_hit_latency >= kL2PipeLatency,
                "l2_hit_latency must be >= the 40-cycle L2 pipeline latency");
  GRS_CHECK_MSG((l2_hit_latency - kL2PipeLatency) % 2 == 0,
                "l2_hit_latency minus the 40-cycle L2 pipeline must be even "
                "(it splits into two equal interconnect traversals)");
  // The L2 is banked per DRAM channel in whole sets (memory/memsys.cc), so
  // the configured capacity must be an exact number of sets with at least one
  // set per bank.
  GRS_CHECK_MSG(l2.size_bytes % (l2.line_bytes * l2.ways) == 0,
                "l2.size_bytes must be a whole number of sets (line_bytes * ways)");
  GRS_CHECK_MSG(l2.num_sets() >= dram.num_channels,
                "L2 needs at least one set per DRAM channel (bank)");
  GRS_CHECK_MSG(l2.mshr_entries >= dram.num_channels,
                "L2 needs at least one MSHR entry per DRAM channel (bank), or a "
                "bank would reject every miss");
  GRS_CHECK_MSG(!sharing.enabled || (sharing.threshold_t > 0.0 && sharing.threshold_t <= 1.0),
                "sharing threshold t must be in (0, 1]");
  GRS_CHECK(sharing.dyn_period > 0);
  GRS_CHECK(sharing.dyn_step > 0.0 && sharing.dyn_step <= 1.0);
}

namespace configs {

GpuConfig unshared(SchedulerKind sched) {
  GpuConfig c;
  c.scheduler = sched;
  c.sharing.enabled = false;
  return c;
}

static GpuConfig shared_base(Resource res, double t) {
  GpuConfig c;
  c.sharing.enabled = true;
  c.sharing.resource = res;
  c.sharing.threshold_t = t;
  return c;
}

GpuConfig shared_noopt(Resource res, double t) {
  GpuConfig c = shared_base(res, t);
  c.scheduler = SchedulerKind::kLrr;
  return c;
}

GpuConfig shared_unroll(Resource res, double t) {
  GpuConfig c = shared_noopt(res, t);
  c.sharing.unroll_registers = true;
  return c;
}

GpuConfig shared_unroll_dyn(Resource res, double t) {
  GpuConfig c = shared_unroll(res, t);
  c.sharing.dynamic_warp_execution = true;
  return c;
}

GpuConfig shared_owf_unroll_dyn(Resource res, double t) {
  GpuConfig c = shared_unroll_dyn(res, t);
  c.scheduler = SchedulerKind::kOwf;
  return c;
}

GpuConfig shared_owf(Resource res, double t) {
  GpuConfig c = shared_base(res, t);
  c.scheduler = SchedulerKind::kOwf;
  return c;
}

}  // namespace configs
}  // namespace grs
