#include "memory/cache.h"

#include <algorithm>

#include "common/check.h"

namespace grs {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  GRS_CHECK(cfg.num_sets() >= 1);
  GRS_CHECK(cfg.ways >= 1);
  ways_.resize(static_cast<std::size_t>(cfg.num_sets()) * cfg.ways);
  mshr_.reserve(cfg.mshr_entries);
}

std::size_t Cache::set_index(Addr line_addr) const {
  return static_cast<std::size_t>(line_addr / cfg_.line_bytes) % cfg_.num_sets();
}

void Cache::install(Addr line_addr) {
  const std::size_t base = set_index(line_addr) * cfg_.ways;
  // Reuse an existing tag slot if present (refill), else evict LRU.
  std::size_t victim = base;
  std::uint64_t best = ways_[base].lru;
  for (std::size_t w = base; w < base + cfg_.ways; ++w) {
    if (ways_[w].valid && ways_[w].tag == line_addr) {
      ways_[w].lru = ++stamp_;
      return;
    }
    if (!ways_[w].valid) {
      victim = w;
      best = 0;
    } else if (ways_[w].lru < best) {
      victim = w;
      best = ways_[w].lru;
    }
  }
  ways_[victim] = Way{line_addr, true, ++stamp_};
}

void Cache::drain(Cycle now) {
  // Sorted by (ready, line): the delivered lines are a prefix, in install order.
  auto end = mshr_.begin();
  for (; end != mshr_.end() && end->first <= now; ++end) install(end->second);
  mshr_.erase(mshr_.begin(), end);
}

Cache::LookupResult Cache::lookup(Addr line_addr, Cycle now) {
  ++accesses;
  drain(now);

  const std::size_t base = set_index(line_addr) * cfg_.ways;
  for (std::size_t w = base; w < base + cfg_.ways; ++w) {
    if (ways_[w].valid && ways_[w].tag == line_addr) {
      ways_[w].lru = ++stamp_;
      ++hits;
      return LookupResult{.hit = true};
    }
  }

  for (const auto& [ready, line] : mshr_) {
    if (line == line_addr) {
      ++merges;
      return LookupResult{.hit = false, .mshr_merge = true, .ready = ready};
    }
  }

  if (mshr_.size() >= cfg_.mshr_entries) {
    --accesses;  // structural reject: the access will be retried
    return LookupResult{.mshr_full = true};
  }

  ++misses;
  return LookupResult{};  // primary miss; caller calls fill_inflight()
}

void Cache::fill_inflight(Addr line_addr, Cycle ready) {
  GRS_CHECK(mshr_.size() < cfg_.mshr_entries);
  const std::pair<Cycle, Addr> entry{ready, line_addr};
  mshr_.insert(std::upper_bound(mshr_.begin(), mshr_.end(), entry), entry);
}

}  // namespace grs
