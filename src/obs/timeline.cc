#include "obs/timeline.h"

#include <cstdio>

#include "common/format.h"

namespace grs::obs {

namespace {

constexpr const char* kHeader =
    "cycle,sm,issued,stall,idle,warp_instr,thread_instr,ipc,"
    "blk_scoreboard,blk_barrier,blk_mshr,blk_lsu_port,blk_lsu_queue,blk_sfu_port,"
    "lock_wait,dyn_throttled,lock_acquired,ownership_transfers,"
    "l1_accesses,l1_misses,resident_blocks,resident_warps,mshr_inflight,"
    "l2_accesses,l2_misses,dram_requests,dram_row_hits,l2_busy_banks,dram_busy_banks\n";

/// Append `,v`: one numeric cell after the row's first.
void put_u64(std::string& out, std::uint64_t v) {
  out += ',';
  append_u64(out, v);
}

void put_ipc(std::string& out, std::uint64_t thread_instr, Cycle window) {
  char tmp[32];
  std::snprintf(tmp, sizeof tmp, ",%.4f",
                window == 0 ? 0.0
                            : static_cast<double>(thread_instr) / static_cast<double>(window));
  out += tmp;
}

/// The per-SM column block shared by SM rows and the "gpu" sum row:
/// window deltas for the counters, current values for the gauges.
void put_sm_columns(std::string& out, const SmTimelinePoint& cur, const SmTimelinePoint& prev,
                    Cycle window) {
  const SmStats& c = cur.stats;
  const SmStats& p = prev.stats;
  put_u64(out, c.issued_cycles - p.issued_cycles);
  put_u64(out, c.stall_cycles - p.stall_cycles);
  put_u64(out, c.idle_cycles - p.idle_cycles);
  put_u64(out, c.warp_instructions - p.warp_instructions);
  put_u64(out, c.thread_instructions - p.thread_instructions);
  put_ipc(out, c.thread_instructions - p.thread_instructions, window);
  put_u64(out, c.blocked_scoreboard - p.blocked_scoreboard);
  put_u64(out, c.blocked_barrier - p.blocked_barrier);
  put_u64(out, c.blocked_mshr - p.blocked_mshr);
  put_u64(out, c.blocked_lsu_port - p.blocked_lsu_port);
  put_u64(out, c.blocked_lsu_inflight - p.blocked_lsu_inflight);
  put_u64(out, c.blocked_sfu_port - p.blocked_sfu_port);
  put_u64(out, c.lock_wait_cycles - p.lock_wait_cycles);
  put_u64(out, c.dyn_throttled_issues - p.dyn_throttled_issues);
  put_u64(out, c.lock_acquisitions - p.lock_acquisitions);
  put_u64(out, c.ownership_transfers - p.ownership_transfers);
  put_u64(out, c.l1_accesses - p.l1_accesses);
  put_u64(out, c.l1_misses - p.l1_misses);
  put_u64(out, cur.resident_blocks);
  put_u64(out, cur.resident_warps);
  put_u64(out, cur.mshr_inflight);
}

}  // namespace

void TimelineSampler::sample(Cycle boundary, const std::vector<SmTimelinePoint>& sms,
                             const GpuTimelinePoint& gpu) {
  if (prev_sms_.empty()) prev_sms_.resize(sms.size());
  const Cycle window = interval_;

  SmTimelinePoint total;
  for (std::size_t i = 0; i < sms.size(); ++i) {
    append_u64(rows_, boundary);
    put_u64(rows_, i);
    put_sm_columns(rows_, sms[i], prev_sms_[i], window);
    rows_ += ",,,,,,\n";  // L2/DRAM columns are gpu-row only

    total.stats.merge(sms[i].stats);
    // merge() folds the counters; sum the gauges by hand.
    total.resident_blocks += sms[i].resident_blocks;
    total.resident_warps += sms[i].resident_warps;
    total.mshr_inflight += sms[i].mshr_inflight;
  }

  SmTimelinePoint prev_total;
  for (const auto& p : prev_sms_) prev_total.stats.merge(p.stats);

  append_u64(rows_, boundary);
  rows_ += ",gpu";
  put_sm_columns(rows_, total, prev_total, window);
  put_u64(rows_, gpu.l2_accesses - prev_gpu_.l2_accesses);
  put_u64(rows_, gpu.l2_misses - prev_gpu_.l2_misses);
  put_u64(rows_, gpu.dram_requests - prev_gpu_.dram_requests);
  put_u64(rows_, gpu.dram_row_hits - prev_gpu_.dram_row_hits);
  put_u64(rows_, gpu.l2_busy_banks);
  put_u64(rows_, gpu.dram_busy_banks);
  rows_ += '\n';

  prev_sms_ = sms;
  prev_gpu_ = gpu;
}

std::string TimelineSampler::csv() const { return kHeader + rows_; }

}  // namespace grs::obs
