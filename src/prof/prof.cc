#include "prof/prof.h"

#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/io.h"

namespace grs::prof {

// Stack paths are encoded as nibbles, root in the high position: pushing
// phase p onto a stack with path K yields K << 4 | (p + 1). Ten phases fit a
// nibble and the hook sites never nest deeper than a handful of frames, so a
// 64-bit key (16 frames) is ample — and map<uint64> keeps the hot begin/end
// path free of string building.
namespace {
constexpr std::size_t kMaxDepth = 16;

void decode_path(std::uint64_t path, std::string& out) {
  // Collect nibbles low-to-high (leaf first), then emit root-first.
  std::array<std::uint8_t, kMaxDepth> frames{};
  std::size_t n = 0;
  for (; path != 0; path >>= 4) frames[n++] = static_cast<std::uint8_t>(path & 0xF);
  for (std::size_t i = n; i-- > 0;) {
    out += to_string(static_cast<Phase>(frames[i] - 1));
    if (i != 0) out += ';';
  }
}

void put_double(std::string& out, const char* key, double v) {
  char tmp[64];
  std::snprintf(tmp, sizeof tmp, "\"%s\":%.9f", key, v);
  out += tmp;
}

}  // namespace

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kSimulate: return "simulate";
    case Phase::kExecute: return "execute_writeback";
    case Phase::kSchedulerScan: return "scheduler_scan";
    case Phase::kIssue: return "issue";
    case Phase::kMemsys: return "memsys_l2";
    case Phase::kDram: return "dram";
    case Phase::kEventSleep: return "event_sleep";
    case Phase::kTimeline: return "timeline_sample";
    case Phase::kCacheLookup: return "cache_lookup";
    case Phase::kCacheStore: return "cache_store";
  }
  return "?";
}

void HostProfiler::begin(Phase p) {
  GRS_CHECK_MSG(stack_.size() < kMaxDepth, "profiler phase stack overflow");
  Frame f;
  f.p = p;
  f.start = clock_();
  f.path = (stack_.empty() ? 0 : stack_.back().path) << 4 |
           (static_cast<std::uint64_t>(p) + 1);
  stack_.push_back(f);
}

void HostProfiler::end(Phase p) {
  GRS_CHECK_MSG(!stack_.empty() && stack_.back().p == p,
                "profiler end() does not match the open phase");
  const double now = clock_();
  const Frame top = stack_.back();
  stack_.pop_back();
  const double total = now - top.start;
  const double self = total - top.child;
  Agg& a = agg(p);
  a.total += total;
  a.self += self;
  ++a.calls;
  folded_[top.path] += self;
  if (!stack_.empty()) {
    stack_.back().child += total;
  } else {
    wall_ += total;
  }
}

void HostProfiler::merge(const HostProfiler& o) {
  GRS_CHECK_MSG(stack_.empty() && o.stack_.empty(),
                "profiler merge with a phase still open");
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    agg_[i].total += o.agg_[i].total;
    agg_[i].self += o.agg_[i].self;
    agg_[i].calls += o.agg_[i].calls;
  }
  for (const auto& [path, self] : o.folded_) folded_[path] += self;
  wall_ += o.wall_;
  warps_scanned_ += o.warps_scanned_;
  warps_decided_ += o.warps_decided_;
  fingerprints_hashed_ += o.fingerprints_hashed_;
}

std::string HostProfiler::json() const {
  std::string out = "{\"schema\":\"grs-prof-v1\",";
  put_double(out, "wall_seconds", wall_);
  out += ",\"phases\":[";
  bool first = true;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    if (agg_[i].calls == 0) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += to_string(static_cast<Phase>(i));
    out += "\",";
    char tmp[48];
    std::snprintf(tmp, sizeof tmp, "\"calls\":%llu,",
                  static_cast<unsigned long long>(agg_[i].calls));
    out += tmp;
    put_double(out, "total_s", agg_[i].total);
    out += ',';
    put_double(out, "self_s", agg_[i].self);
    if (wall_ > 0.0) {
      out += ',';
      std::snprintf(tmp, sizeof tmp, "\"pct_of_wall\":%.2f", agg_[i].total / wall_ * 100.0);
      out += tmp;
    }
    out += '}';
  }
  char tmp[160];
  std::snprintf(tmp, sizeof tmp,
                "],\"counts\":{\"warps_scanned\":%llu,\"warps_decided\":%llu,"
                "\"fingerprints_hashed\":%llu}}\n",
                static_cast<unsigned long long>(warps_scanned_),
                static_cast<unsigned long long>(warps_decided_),
                static_cast<unsigned long long>(fingerprints_hashed_));
  out += tmp;
  return out;
}

std::string HostProfiler::folded() const {
  std::string out;
  for (const auto& [path, self] : folded_) {
    decode_path(path, out);
    char tmp[32];
    std::snprintf(tmp, sizeof tmp, " %llu\n",
                  static_cast<unsigned long long>(std::llround(self * 1e6)));
    out += tmp;
  }
  return out;
}

void write_prof_outputs(const HostProfiler& prof, const std::string& json_path,
                        const std::string& folded_path) {
  if (!json_path.empty()) write_file(json_path, prof.json());
  if (!folded_path.empty()) write_file(folded_path, prof.folded());
}

}  // namespace grs::prof
