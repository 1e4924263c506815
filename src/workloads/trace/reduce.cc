#include "workloads/trace/reduce.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace grs::workloads::trace {

namespace {

constexpr std::uint64_t kLineBytes = 128;
constexpr std::size_t kMaxBuckets = 8;

/// Accumulates value -> weight; ordered so reduction output is deterministic.
using Hist = std::map<std::int64_t, std::uint64_t>;

/// Round a reuse distance up to a power of two: 1,2,4,8,... keeps the
/// histogram small without losing the scheduler-relevant magnitude.
std::int64_t reuse_bucket(std::uint64_t distance) {
  std::uint64_t b = 1;
  while (b < distance && b < (1ull << 62)) b <<= 1;
  return static_cast<std::int64_t>(b);
}

/// Keep the kMaxBuckets heaviest buckets; fold dropped weight into the
/// nearest surviving value so the total mass (and sampling totals) survive.
std::vector<ProfileBucket> cap_buckets(const Hist& h) {
  std::vector<ProfileBucket> all;
  all.reserve(h.size());
  for (const auto& [value, weight] : h) all.push_back({value, weight});
  if (all.size() <= kMaxBuckets) return all;

  std::vector<ProfileBucket> by_weight = all;
  std::stable_sort(by_weight.begin(), by_weight.end(),
                   [](const ProfileBucket& a, const ProfileBucket& b) {
                     if (a.weight != b.weight) return a.weight > b.weight;
                     return std::llabs(a.value) < std::llabs(b.value);
                   });
  by_weight.resize(kMaxBuckets);
  std::sort(by_weight.begin(), by_weight.end(),
            [](const ProfileBucket& a, const ProfileBucket& b) { return a.value < b.value; });

  auto nearest = [&](std::int64_t v) -> ProfileBucket& {
    std::size_t best = 0;
    std::uint64_t best_d = UINT64_MAX;
    for (std::size_t i = 0; i < by_weight.size(); ++i) {
      const std::int64_t d = by_weight[i].value - v;
      const std::uint64_t ad =
          d < 0 ? static_cast<std::uint64_t>(-d) : static_cast<std::uint64_t>(d);
      if (ad < best_d) {
        best_d = ad;
        best = i;
      }
    }
    return by_weight[best];
  };
  for (const ProfileBucket& b : all) {
    const bool kept =
        std::any_of(by_weight.begin(), by_weight.end(),
                    [&](const ProfileBucket& k) { return k.value == b.value; });
    if (!kept) nearest(b.value).weight += b.weight;
  }
  return by_weight;
}

/// Per-pc running state while walking the trace.
struct PcState {
  bool is_store = false;
  std::uint64_t store_instances = 0;
  std::uint64_t instances = 0;
  Hist coalesce;
  Hist stride;
  Hist reuse;
  std::uint64_t cold = 0;
  std::unordered_set<std::uint64_t> footprint;
  std::unordered_set<std::uint32_t> warps;
  /// Per warp: base line of the previous access (stride) and per-line last
  /// access index (reuse), counted in this warp's accesses of this pc.
  std::unordered_map<std::uint32_t, std::uint64_t> last_base;
  std::unordered_map<std::uint32_t, std::uint64_t> access_count;
  std::unordered_map<std::uint32_t, std::unordered_map<std::uint64_t, std::uint64_t>> last_touch;
};

}  // namespace

std::vector<InstrStats> reduce_trace(const Trace& t) {
  std::map<std::uint64_t, PcState> pcs;

  std::vector<std::uint64_t> lines;  // scratch: distinct lines of one access
  for (const WarpAccess& a : t.accesses) {
    PcState& s = pcs[a.pc];
    ++s.instances;
    if (a.is_store) ++s.store_instances;
    s.warps.insert(a.warp_id);

    lines.clear();
    for (const LaneAccess& lane : a.lanes) {
      const std::uint64_t first = lane.addr / kLineBytes;
      const std::uint64_t last = (lane.addr + std::max(lane.size, 1u) - 1) / kLineBytes;
      for (std::uint64_t ln = first; ln <= last; ++ln) lines.push_back(ln);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    if (lines.empty()) continue;
    ++s.coalesce[static_cast<std::int64_t>(std::min<std::size_t>(lines.size(), 32))];

    const std::uint64_t base = lines.front();
    if (const auto prev = s.last_base.find(a.warp_id); prev != s.last_base.end()) {
      ++s.stride[static_cast<std::int64_t>(base) - static_cast<std::int64_t>(prev->second)];
    }
    s.last_base[a.warp_id] = base;

    const std::uint64_t idx = ++s.access_count[a.warp_id];
    auto& touched = s.last_touch[a.warp_id];
    for (const std::uint64_t ln : lines) {
      if (const auto it = touched.find(ln); it != touched.end()) {
        ++s.reuse[reuse_bucket(idx - it->second)];
      } else {
        ++s.cold;
      }
      touched[ln] = idx;
      s.footprint.insert(ln);
    }
  }

  std::vector<InstrStats> out;
  out.reserve(pcs.size());
  for (auto& [pc, s] : pcs) {
    InstrStats r;
    r.pc = pc;
    r.is_store = s.store_instances * 2 > s.instances;
    r.instances = s.instances;
    r.warps = static_cast<std::uint32_t>(s.warps.size());
    r.profile.coalesce = cap_buckets(s.coalesce);
    // A single-access pc has no observed stride; describe it as stationary.
    if (s.stride.empty()) s.stride[0] = 1;
    r.profile.stride = cap_buckets(s.stride);
    if (s.cold > 0) r.profile.reuse.push_back({MemProfile::kColdReuse, s.cold});
    for (const ProfileBucket& b : cap_buckets(s.reuse)) {
      r.profile.reuse.push_back(b);
    }
    // Clamp to the region-window limit MemProfile::check() enforces.
    r.profile.footprint_lines =
        std::clamp<std::uint64_t>(s.footprint.size(), 1, 1ull << 29);
    r.profile.canonicalize();
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace grs::workloads::trace
