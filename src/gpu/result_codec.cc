#include "gpu/result_codec.h"

#include <cstdio>

#include "common/format.h"
#include "common/parse.h"

namespace grs {

namespace {

// Accessor boilerplate. The setters static_cast through the member's own
// type so uint32 counters and enums round-trip without per-field code.
#define GRS_FIELD_U64(name, flat, expr)                                                  \
  ResultField {                                                                          \
    name, flat, false, false,                                                            \
        [](const SimResult& r) { return static_cast<std::uint64_t>(expr); },             \
        [](SimResult& r, std::uint64_t v) { expr = static_cast<decltype(expr)>(v); },    \
        nullptr, nullptr                                                                 \
  }

#define GRS_FIELD_F64(name, flat, expr)                                                  \
  ResultField {                                                                          \
    name, flat, true, false, nullptr, nullptr,                                           \
        [](const SimResult& r) { return static_cast<double>(expr); },                    \
        [](SimResult& r, double v) { expr = v; }                                         \
  }

#define GRS_FIELD_DERIVED(name, expr)                                                    \
  ResultField {                                                                          \
    name, true, true, true, nullptr, nullptr,                                            \
        [](const SimResult& r) { return static_cast<double>(expr); }, nullptr            \
  }

std::string f6_str(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

const std::vector<ResultField>& result_fields() {
  // Enumeration order is the codec: the `flat` subset, in this order, IS the
  // sink flat-row schema, and encode() emits the non-derived subset in this
  // order. Reordering or renaming is a codec change (bump
  // kResultCodecVersion).
  static const std::vector<ResultField> fields = {
      // Occupancy (the launch plan).
      GRS_FIELD_U64("blocks_per_sm", true, r.occupancy.total_blocks),
      GRS_FIELD_U64("baseline_blocks", true, r.occupancy.baseline_blocks),
      GRS_FIELD_U64("shared_pairs", true, r.occupancy.shared_pairs),
      GRS_FIELD_U64("unshared_blocks", false, r.occupancy.unshared_blocks),
      GRS_FIELD_U64("eq4_blocks", false, r.occupancy.eq4_blocks),
      GRS_FIELD_U64("limiter", false, r.occupancy.limiter),
      GRS_FIELD_U64("sharing_active", false, r.occupancy.sharing_active),
      GRS_FIELD_U64("unshared_regs_per_thread", false, r.occupancy.unshared_regs_per_thread),
      GRS_FIELD_U64("unshared_smem_bytes", false, r.occupancy.unshared_smem_bytes),
      GRS_FIELD_F64("baseline_waste_percent", false, r.occupancy.baseline_waste_percent),
      // Whole-GPU totals and derived rates.
      GRS_FIELD_U64("cycles", true, r.stats.cycles),
      GRS_FIELD_DERIVED("ipc", r.stats.ipc()),
      GRS_FIELD_DERIVED("warp_ipc", r.stats.warp_ipc()),
      // Per-SM scheduler accounting (summed over SMs).
      GRS_FIELD_U64("issued_cycles", true, r.stats.sm_total.issued_cycles),
      GRS_FIELD_U64("stall_cycles", true, r.stats.sm_total.stall_cycles),
      GRS_FIELD_U64("idle_cycles", true, r.stats.sm_total.idle_cycles),
      GRS_FIELD_U64("warp_instructions", true, r.stats.sm_total.warp_instructions),
      GRS_FIELD_U64("thread_instructions", true, r.stats.sm_total.thread_instructions),
      GRS_FIELD_DERIVED("l1_miss_rate", r.stats.l1_miss_rate()),
      GRS_FIELD_DERIVED("l2_miss_rate", r.stats.l2_miss_rate()),
      GRS_FIELD_U64("dram_requests", true, r.stats.dram_requests),
      // Sharing runtime events.
      GRS_FIELD_U64("lock_acquisitions", true, r.stats.sm_total.lock_acquisitions),
      GRS_FIELD_U64("lock_wait_cycles", true, r.stats.sm_total.lock_wait_cycles),
      GRS_FIELD_U64("dyn_throttled_issues", true, r.stats.sm_total.dyn_throttled_issues),
      // Remaining SM counters (not part of the flat row, still cached).
      GRS_FIELD_U64("blocks_launched", false, r.stats.sm_total.blocks_launched),
      GRS_FIELD_U64("blocks_finished", false, r.stats.sm_total.blocks_finished),
      GRS_FIELD_U64("max_resident_blocks", false, r.stats.sm_total.max_resident_blocks),
      GRS_FIELD_U64("max_resident_warps", false, r.stats.sm_total.max_resident_warps),
      GRS_FIELD_U64("ownership_transfers", false, r.stats.sm_total.ownership_transfers),
      GRS_FIELD_U64("l1_accesses", false, r.stats.sm_total.l1_accesses),
      GRS_FIELD_U64("l1_misses", false, r.stats.sm_total.l1_misses),
      GRS_FIELD_U64("l1_mshr_merges", false, r.stats.sm_total.l1_mshr_merges),
      GRS_FIELD_U64("blocked_lsu_port", false, r.stats.sm_total.blocked_lsu_port),
      GRS_FIELD_U64("blocked_lsu_inflight", false, r.stats.sm_total.blocked_lsu_inflight),
      GRS_FIELD_U64("blocked_mshr", false, r.stats.sm_total.blocked_mshr),
      GRS_FIELD_U64("blocked_sfu_port", false, r.stats.sm_total.blocked_sfu_port),
      GRS_FIELD_U64("blocked_scoreboard", false, r.stats.sm_total.blocked_scoreboard),
      GRS_FIELD_U64("blocked_barrier", false, r.stats.sm_total.blocked_barrier),
      // L2 / DRAM (shared across SMs).
      GRS_FIELD_U64("l2_accesses", false, r.stats.l2_accesses),
      GRS_FIELD_U64("l2_misses", false, r.stats.l2_misses),
      GRS_FIELD_U64("dram_row_hits", false, r.stats.dram_row_hits),
  };
  return fields;
}

#undef GRS_FIELD_U64
#undef GRS_FIELD_F64
#undef GRS_FIELD_DERIVED

std::string format_result_field(const ResultField& f, const SimResult& r) {
  if (f.fractional) return f6_str(f.get_f64(r));
  std::string out;
  append_u64(out, f.get_u64(r));
  return out;
}

std::string encode_result(const SimResult& r) {
  std::string out;
  out.reserve(1200);
  out += "grs-result ";
  append_u64(out, static_cast<std::uint64_t>(kResultCodecVersion));
  out += '\n';
  for (const ResultField& f : result_fields()) {
    if (f.derived) continue;
    out += f.name;
    out += ' ';
    if (f.fractional) {
      append_exact(out, f.get_f64(r));  // exact binary64 round-trip
    } else {
      append_u64(out, f.get_u64(r));
    }
    out += '\n';
  }
  out += "end\n";
  return out;
}

bool decode_result(std::string_view text, SimResult& out) {
  // Views into `text`, line by line: no per-line string.
  std::string_view line;
  const auto next_line = [&text, &line] {
    const std::size_t nl = text.find('\n');
    if (nl == std::string_view::npos) return false;  // no line, or a truncated one
    line = text.substr(0, nl);
    text.remove_prefix(nl + 1);
    return true;
  };

  if (!next_line() || line != "grs-result 1") return false;
  for (const ResultField& f : result_fields()) {
    if (f.derived) continue;
    if (!next_line()) return false;
    const std::string_view name = f.name;
    if (line.size() <= name.size() || line.compare(0, name.size(), name) != 0 ||
        line[name.size()] != ' ') {
      return false;
    }
    const std::string_view value = line.substr(name.size() + 1);
    if (f.fractional) {
      const auto v = parse_finite_double(value);
      if (!v.has_value()) return false;
      f.set_f64(out, *v);
    } else {
      const auto v = parse_u64(value);
      if (!v.has_value()) return false;
      // The one enum field: reject values outside the Resource range so a
      // damaged entry can never materialize an invalid enum.
      if (name == "limiter" && *v > 3) return false;
      f.set_u64(out, *v);
    }
  }
  return next_line() && line == "end" && text.empty();
}

}  // namespace grs
