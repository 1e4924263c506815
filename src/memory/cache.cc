#include "memory/cache.h"

#include <algorithm>

#include "common/check.h"

namespace grs {

namespace {

bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg),
      num_sets_(cfg.num_sets()),
      pow2_(is_pow2(cfg.line_bytes) && is_pow2(num_sets_)) {
  GRS_CHECK(num_sets_ >= 1);
  GRS_CHECK(cfg.ways >= 1);
  if (pow2_) line_shift_ = static_cast<unsigned>(__builtin_ctz(cfg.line_bytes));
  ways_.resize(num_sets_ * cfg.ways);
  mshr_.reserve(2 * static_cast<std::size_t>(cfg.mshr_entries));
}

void Cache::install(Addr line_addr) {
  const std::size_t base = set_base(line_addr);
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
  for (; head_ != mshr_.size() && mshr_[head_].first <= now; ++head_) install(mshr_[head_].second);
}

Cache::LookupResult Cache::lookup(Addr line_addr, Cycle now) {
  ++accesses;
  drain(now);

  const std::size_t base = set_base(line_addr);
  for (std::size_t w = base; w < base + cfg_.ways; ++w) {
    if (ways_[w].valid && ways_[w].tag == line_addr) {
      ways_[w].lru = ++stamp_;
      ++hits;
      return LookupResult{.hit = true};
    }
  }

  for (std::size_t i = head_; i != mshr_.size(); ++i) {
    if (mshr_[i].second == line_addr) {
      ++merges;
      return LookupResult{.hit = false, .mshr_merge = true, .ready = mshr_[i].first};
    }
  }

  if (inflight() >= cfg_.mshr_entries) {
    --accesses;  // structural reject: the access will be retried
    return LookupResult{.mshr_full = true};
  }

  ++misses;
  return LookupResult{};  // primary miss; caller calls fill_inflight()
}

void Cache::fill_inflight(Addr line_addr, Cycle ready) {
  GRS_CHECK(inflight() < cfg_.mshr_entries);
  if (mshr_.size() == mshr_.capacity()) {
    // Compact: at most mshr_entries - 1 entries move, once per at least
    // mshr_entries + 1 fills.
    mshr_.erase(mshr_.begin(), mshr_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  const std::pair<Cycle, Addr> entry{ready, line_addr};
  mshr_.insert(std::upper_bound(mshr_.begin() + static_cast<std::ptrdiff_t>(head_), mshr_.end(),
                                entry),
               entry);
}

}  // namespace grs
