#include "common/stats.h"

#include <algorithm>
#include <cstdio>

namespace grs {

void SmStats::merge(const SmStats& o) {
  issued_cycles += o.issued_cycles;
  stall_cycles += o.stall_cycles;
  idle_cycles += o.idle_cycles;
  warp_instructions += o.warp_instructions;
  thread_instructions += o.thread_instructions;
  blocks_launched += o.blocks_launched;
  blocks_finished += o.blocks_finished;
  max_resident_blocks = std::max(max_resident_blocks, o.max_resident_blocks);
  max_resident_warps = std::max(max_resident_warps, o.max_resident_warps);
  lock_acquisitions += o.lock_acquisitions;
  lock_wait_cycles += o.lock_wait_cycles;
  ownership_transfers += o.ownership_transfers;
  dyn_throttled_issues += o.dyn_throttled_issues;
  l1_accesses += o.l1_accesses;
  l1_misses += o.l1_misses;
  l1_mshr_merges += o.l1_mshr_merges;
  blocked_lsu_port += o.blocked_lsu_port;
  blocked_lsu_inflight += o.blocked_lsu_inflight;
  blocked_mshr += o.blocked_mshr;
  blocked_sfu_port += o.blocked_sfu_port;
  blocked_scoreboard += o.blocked_scoreboard;
  blocked_barrier += o.blocked_barrier;
}

bool operator==(const SmStats& a, const SmStats& b) {
  return a.issued_cycles == b.issued_cycles && a.stall_cycles == b.stall_cycles &&
         a.idle_cycles == b.idle_cycles && a.warp_instructions == b.warp_instructions &&
         a.thread_instructions == b.thread_instructions &&
         a.blocks_launched == b.blocks_launched && a.blocks_finished == b.blocks_finished &&
         a.max_resident_blocks == b.max_resident_blocks &&
         a.max_resident_warps == b.max_resident_warps &&
         a.lock_acquisitions == b.lock_acquisitions &&
         a.lock_wait_cycles == b.lock_wait_cycles &&
         a.ownership_transfers == b.ownership_transfers &&
         a.dyn_throttled_issues == b.dyn_throttled_issues &&
         a.l1_accesses == b.l1_accesses && a.l1_misses == b.l1_misses &&
         a.l1_mshr_merges == b.l1_mshr_merges && a.blocked_lsu_port == b.blocked_lsu_port &&
         a.blocked_lsu_inflight == b.blocked_lsu_inflight && a.blocked_mshr == b.blocked_mshr &&
         a.blocked_sfu_port == b.blocked_sfu_port &&
         a.blocked_scoreboard == b.blocked_scoreboard &&
         a.blocked_barrier == b.blocked_barrier;
}

bool operator==(const GpuStats& a, const GpuStats& b) {
  return a.cycles == b.cycles && a.sm_total == b.sm_total &&
         a.l2_accesses == b.l2_accesses && a.l2_misses == b.l2_misses &&
         a.dram_requests == b.dram_requests && a.dram_row_hits == b.dram_row_hits;
}

std::string GpuStats::summary() const {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "cycles=%llu  IPC=%.2f (warp IPC=%.2f)\n"
                "issued/stall/idle scheduler-cycles = %llu / %llu / %llu\n"
                "blocks launched=%llu  max resident/SM=%u\n"
                "L1 miss rate=%.3f  L2 miss rate=%.3f  DRAM reqs=%llu (row-hit %.2f)\n"
                "locks acquired=%llu  ownership transfers=%llu  dyn-throttled=%llu",
                static_cast<unsigned long long>(cycles), ipc(), warp_ipc(),
                static_cast<unsigned long long>(sm_total.issued_cycles),
                static_cast<unsigned long long>(sm_total.stall_cycles),
                static_cast<unsigned long long>(sm_total.idle_cycles),
                static_cast<unsigned long long>(sm_total.blocks_launched),
                sm_total.max_resident_blocks, l1_miss_rate(), l2_miss_rate(),
                static_cast<unsigned long long>(dram_requests),
                dram_requests == 0 ? 0.0
                                   : static_cast<double>(dram_row_hits) /
                                         static_cast<double>(dram_requests),
                static_cast<unsigned long long>(sm_total.lock_acquisitions),
                static_cast<unsigned long long>(sm_total.ownership_transfers),
                static_cast<unsigned long long>(sm_total.dyn_throttled_issues));
  return buf;
}

double percent_improvement(double baseline, double value) {
  if (baseline == 0.0) return 0.0;
  return (value - baseline) / baseline * 100.0;
}

double percent_decrease(double baseline, double value) {
  if (baseline == 0.0) return 0.0;
  return (baseline - value) / baseline * 100.0;
}

}  // namespace grs
