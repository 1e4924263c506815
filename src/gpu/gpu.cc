#include "gpu/gpu.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "prof/prof.h"

namespace grs {

Gpu::Gpu(const GpuConfig& cfg, const Occupancy& occupancy, const KernelInfo& kernel,
         const Program& program, obs::SimObserver* obs)
    : cfg_(cfg),
      occupancy_(occupancy),
      memsys_(cfg, obs),
      dyn_(cfg.sharing, cfg.num_sms),
      obs_(obs),
      kernel_name_(kernel.name),
      grid_blocks_(kernel.grid_blocks) {
  cfg_.validate();
  sms_.reserve(cfg.num_sms);
  for (SmId i = 0; i < cfg.num_sms; ++i) {
    sms_.emplace_back(i, cfg_, program, kernel.resources, occupancy_,
                      kernel.active_lanes, memsys_, &dyn_, obs_);
    sms_.back().set_block_finish_callback([this](SmId sm, BlockSlot slot) {
      if (next_block_ < grid_blocks_) sms_[sm].launch_block(slot, next_block_++);
    });
  }
}

void Gpu::take_timeline_sample(Cycle b) {
  prof::ScopedPhase prof_scope(obs_->profiler(), prof::Phase::kTimeline);
  std::vector<obs::SmTimelinePoint> pts;
  pts.reserve(sms_.size());
  for (const auto& sm : sms_) {
    obs::SmTimelinePoint p;
    // A sleeping SM's gauges need no reconstruction: nothing it owns moves
    // while it sleeps.
    p.stats = sm.stats(b);
    p.resident_blocks = sm.resident_blocks();
    p.resident_warps = sm.resident_warps();
    p.mshr_inflight = sm.l1_mshr_inflight();
    pts.push_back(p);
  }
  obs::GpuTimelinePoint g;
  g.l2_accesses = memsys_.l2_accesses();
  g.l2_misses = memsys_.l2_misses();
  g.dram_requests = memsys_.dram_requests();
  g.dram_row_hits = memsys_.dram_row_hits();
  g.l2_busy_banks = memsys_.l2_busy_banks(b);
  g.dram_busy_banks = memsys_.dram_busy_banks(b);
  obs_->timeline_sample(b, pts, g);
}

bool Gpu::done() const {
  if (next_block_ < grid_blocks_) return false;
  for (const auto& sm : sms_) {
    if (!sm.drained()) return false;
  }
  return true;
}

GpuStats Gpu::run() {
  if (obs_ != nullptr) {
    obs::TraceTopology topo;
    topo.num_sms = cfg_.num_sms;
    topo.warp_slots = sms_.empty() ? 0 : sms_[0].warp_slots();
    topo.block_slots = occupancy_.total_blocks;
    topo.pairs = occupancy_.shared_pairs;
    topo.l2_banks = memsys_.num_banks();
    topo.dram_channels = cfg_.dram.num_channels;
    topo.dram_banks_per_channel = cfg_.dram.banks_per_channel;
    topo.kernel = kernel_name_;
    obs_->begin_run(topo);
  }

  // Initial fill: every SM gets its k-th block before any gets its (k+1)-th,
  // so block 0 -> SM0 slot 0, block 1 -> SM1 slot 0, ...
  for (BlockSlot slot = 0; slot < occupancy_.total_blocks; ++slot) {
    for (auto& sm : sms_) {
      if (next_block_ < grid_blocks_) sm.launch_block(slot, next_block_++);
    }
  }

  std::vector<std::uint64_t> stall_mark(sms_.size(), 0);
  std::vector<std::uint64_t> period_stalls(sms_.size(), 0);

  // Timeline sampling: counters are captured at every multiple of the
  // interval. Boundaries the clock jumped over are emitted as catch-up
  // samples — valid because every SM slept through them, so stats(b) gives
  // the exact counters and no gauge moved.
  const Cycle tl_interval = obs_ != nullptr ? obs_->timeline_interval() : 0;
  Cycle next_sample = tl_interval;

  Cycle cycle = 0;
  while (!done()) {
    ++cycle;
    if (tl_interval != 0) {
      while (next_sample < cycle) {
        take_timeline_sample(next_sample);
        next_sample += tl_interval;
      }
    }
    // An event-mode SM sleeps through its own provably-idle windows (O(1)
    // per slept cycle); SMs interact only through issue-time memory
    // accesses, which a sleeping SM by definition does not generate.
    bool issued = false;
    for (auto& sm : sms_) issued |= sm.tick(cycle);

    // Dynamic warp execution: periodic stall comparison against SM0
    // (paper §IV-C, monitoring period 1000 cycles). Sleeping SMs never cross
    // a monitoring boundary (tick clamps their windows to it), so every SM
    // has stepped this cycle.
    if (dyn_.enabled() && cycle % dyn_.period() == 0) {
      for (std::size_t i = 0; i < sms_.size(); ++i) {
        const std::uint64_t s = sms_[i].stats(cycle).stall_cycles;
        period_stalls[i] = s - stall_mark[i];
        stall_mark[i] = s;
      }
      dyn_.on_period_end(period_stalls);
    }

    if (tl_interval != 0 && cycle == next_sample) {
      take_timeline_sample(cycle);
      next_sample += tl_interval;
    }

    if (cfg_.max_cycles != 0 && cycle >= cfg_.max_cycles) break;
    if (issued) continue;

    // No SM issued, so nothing can happen until the earliest window ends:
    // jump the clock straight there (the cycle counter is the only state
    // that moves; stats(c) accounts the skipped cycles). A cycle-mode SM
    // opens no window, so the minimum is 0 and the clock steps by one.
    Cycle next = kNeverCycle;
    for (const auto& sm : sms_) next = std::min(next, sm.idle_until());
    if (cfg_.max_cycles != 0) {
      next = std::min(next, cfg_.max_cycles);
    } else {
      // The deadlock rule. Without Dyn, event mode reads it for free from
      // the windows, which are all open-ended exactly when every SM is
      // stuck; cycle mode asks each SM, and only here, where no cap would
      // end the run. With Dyn on, windows end at every monitoring boundary,
      // where every SM steps in both modes, so both ask there.
      const bool ask = dyn_.enabled() ? cycle % dyn_.period() == 0 : next == 0;
      const bool deadlocked =
          next == kNeverCycle ||
          (ask && std::all_of(sms_.begin(), sms_.end(),
                              [](const StreamingMultiprocessor& sm) { return sm.stuck(); }));
      GRS_CHECK_MSG(!deadlocked, ("deadlock at cycle " + std::to_string(cycle) +
                                  ": no warp can ever issue again and no event is pending")
                                     .c_str());
    }
    if (next > cycle + 1) cycle = next - 1;
  }

  if (obs_ != nullptr) {
    for (const auto& sm : sms_) sm.end_trace(cycle + 1);
    obs_->finalize(cycle);
  }

  GpuStats g;
  g.cycles = cycle;
  for (const auto& sm : sms_) g.sm_total.merge(sm.stats(cycle));
  g.l2_accesses = memsys_.l2_accesses();
  g.l2_misses = memsys_.l2_misses();
  g.dram_requests = memsys_.dram_requests();
  g.dram_row_hits = memsys_.dram_row_hits();
  return g;
}

}  // namespace grs
