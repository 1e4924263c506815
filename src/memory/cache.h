// Set-associative cache tag array with LRU replacement and an MSHR table.
//
// This is a *timing* cache: it tracks tags and in-flight misses, not data.
// Fill discipline: a missing line is entered into the MSHR with the cycle at
// which the lower level will deliver it; tags are installed lazily when a
// later access observes that the ready cycle has passed ("fill on ready").
// Accesses to a line already in flight merge into the existing MSHR entry and
// complete at its ready cycle without generating lower-level traffic. The MSHR
// is kept in (ready, line) order: a drain advances a head index past the
// prefix that has arrived, next_ready() reads the entry at the head, and the
// delivered prefix is erased only when a fill would outgrow the vector's
// reservation (twice the MSHR entries). The set index comes from values fixed
// at construction: a shift and a mask when the line size and the set count
// are powers of two, as in every shipped geometry, else a division.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace grs {

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  struct LookupResult {
    bool hit = false;         ///< tag present (or line already delivered)
    bool mshr_merge = false;  ///< miss merged into an in-flight entry
    bool mshr_full = false;   ///< structural: no MSHR entry available
    Cycle ready = 0;          ///< earliest cycle data is available (merge only)
  };

  /// Probe the cache at `now`. On a primary miss the caller must then call
  /// `fill_inflight(line, ready)` with the lower level's completion cycle.
  /// Does not allocate on miss by itself.
  [[nodiscard]] LookupResult lookup(Addr line_addr, Cycle now);

  /// Register a primary miss in the MSHR: the line becomes resident (tag
  /// installed) once `ready` has passed. Precondition: lookup() just reported
  /// a primary miss for this line; a line already in flight would be held twice.
  void fill_inflight(Addr line_addr, Cycle ready);

  /// Deliver every in-flight line whose data has arrived by `now`, installing
  /// them in (ready, line) order. That order makes one drain over many cycles
  /// stamp LRU exactly as a drain every cycle would, so owners drain only when
  /// they need to: an SM on the cycles it steps (event mode skips idle ones),
  /// an L2 bank only inside lookup(). The SM must still drain before its
  /// MSHR pre-check, which rejects a load on a full MSHR before lookup().
  void drain(Cycle now);

  /// Number of MSHR entries currently in flight. The SM's MSHR pre-check
  /// reads it when it scans a decided global load (a load it finds at a full
  /// MSHR parks until a drain or an LSU issue), the SM's drain reads it to
  /// wake such loads, and the timeline samples it as a gauge.
  [[nodiscard]] std::size_t inflight() const { return mshr_.size() - head_; }

  /// Earliest ready cycle over the in-flight misses, kNeverCycle when none.
  /// The event-driven loop uses this as a wakeup: a warp blocked on MSHR
  /// capacity can become issuable as soon as any entry drains.
  [[nodiscard]] Cycle next_ready() const {
    return head_ == mshr_.size() ? kNeverCycle : mshr_[head_].first;
  }

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

  // Statistics (primary accesses only; the caller classifies).
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t merges = 0;

 private:
  struct Way {
    Addr tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;  ///< last-touch stamp
  };

  void install(Addr line_addr);
  /// First way of `line_addr`'s set in ways_.
  [[nodiscard]] std::size_t set_base(Addr line_addr) const {
    const std::size_t set = pow2_ ? (line_addr >> line_shift_) & (num_sets_ - 1)
                                  : line_addr / cfg_.line_bytes % num_sets_;
    return set * cfg_.ways;
  }

  CacheConfig cfg_;
  std::size_t num_sets_;
  bool pow2_;                  ///< line size and set count are powers of two
  unsigned line_shift_ = 0;    ///< log2(line size) when pow2_
  std::vector<Way> ways_;      ///< num_sets * ways, row-major
  /// (ready, line), sorted; entries before head_ are delivered.
  std::vector<std::pair<Cycle, Addr>> mshr_;
  std::size_t head_ = 0;
  std::uint64_t stamp_ = 0;
};

}  // namespace grs
