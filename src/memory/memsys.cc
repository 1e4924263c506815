#include "memory/memsys.h"

#include <algorithm>

#include "common/check.h"
#include "obs/obs.h"
#include "prof/prof.h"

namespace grs {

MemorySystem::MemorySystem(const GpuConfig& cfg, obs::SimObserver* obs)
    : cfg_(cfg),
      dram_(cfg.dram, cfg.l2.line_bytes),
      trace_(obs::tracer(obs)),
      prof_(obs::profiler(obs)) {
  cfg_.validate();
  // One L2 bank per DRAM channel keeps addressing aligned and gives the
  // 768KB cache (Table I) a realistic amount of request parallelism. Sets and
  // MSHR entries are dealt out whole, low banks first, so the per-bank sums
  // always reconstruct the configured totals (an even divide used to drop the
  // remainder and silently shrink the cache).
  const std::uint32_t n_banks = cfg.dram.num_channels;
  const std::uint32_t total_sets = cfg.l2.num_sets();
  const std::uint32_t set_bytes = cfg.l2.line_bytes * cfg.l2.ways;
  banks_.reserve(n_banks);
  for (std::uint32_t b = 0; b < n_banks; ++b) {
    CacheConfig per_bank = cfg.l2;
    per_bank.size_bytes = (total_sets / n_banks + (b < total_sets % n_banks ? 1 : 0)) *
                          set_bytes;
    per_bank.mshr_entries =
        cfg.l2.mshr_entries / n_banks + (b < cfg.l2.mshr_entries % n_banks ? 1 : 0);
    banks_.emplace_back(per_bank);
  }
}

const CacheConfig& MemorySystem::bank_config(std::uint32_t bank) const {
  GRS_CHECK(bank < banks_.size());
  return banks_[bank].tags.config();
}

Cycle MemorySystem::access(Addr line_addr, Cycle now) {
  prof::ScopedPhase prof_scope(prof_, prof::Phase::kMemsys);
  // Interconnect transit, each way.
  const Cycle transit = (cfg_.l2_hit_latency - kL2PipeLatency) / 2;

  const std::uint64_t line = line_addr / cfg_.l2.line_bytes;
  const std::uint32_t bank_idx = static_cast<std::uint32_t>(line % banks_.size());
  L2Bank& bank = banks_[bank_idx];

  const Cycle arrive = now + transit;
  const Cycle start = std::max(arrive, bank.next_free);
  bank.next_free = start + kBankOccupancy;

  const Cache::LookupResult r = bank.tags.lookup(line_addr, start);
  if (r.hit) {
    if (trace_)
      trace_->l2_transaction(bank_idx, start, line_addr, true, false, start + kL2PipeLatency);
    return start + kL2PipeLatency + transit;
  }
  if (r.mshr_merge) {
    // Data arrives at the L2 at r.ready; serve after both that and our
    // own pipeline slot.
    const Cycle served = std::max(start + kL2PipeLatency, r.ready);
    if (trace_) trace_->l2_transaction(bank_idx, start, line_addr, false, true, served);
    return served + transit;
  }

  // Primary miss (or MSHR full: bypass without fill).
  Dram::RequestInfo info;
  Cycle dram_ready;
  {
    prof::ScopedPhase prof_dram(prof_, prof::Phase::kDram);
    dram_ready = dram_.request(line_addr, start + kL2PipeLatency, trace_ ? &info : nullptr);
  }
  if (!r.mshr_full) bank.tags.fill_inflight(line_addr, dram_ready);
  if (trace_) {
    trace_->l2_transaction(bank_idx, start, line_addr, false, false, dram_ready);
    trace_->dram_transaction(info.channel, info.bank, info.begin, line_addr, info.row_hit,
                             dram_ready);
  }
  return dram_ready + transit;
}

std::uint32_t MemorySystem::l2_busy_banks(Cycle at) const {
  std::uint32_t n = 0;
  for (const auto& b : banks_) n += b.next_free > at ? 1 : 0;
  return n;
}

std::uint64_t MemorySystem::l2_accesses() const {
  std::uint64_t n = 0;
  for (const auto& b : banks_) n += b.tags.accesses;
  return n;
}

std::uint64_t MemorySystem::l2_misses() const {
  std::uint64_t n = 0;
  for (const auto& b : banks_) n += b.tags.misses;
  return n;
}

}  // namespace grs
