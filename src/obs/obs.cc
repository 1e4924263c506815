#include "obs/obs.h"

#include <cinttypes>
#include <cstdio>

#include "common/check.h"
#include "common/json.h"

namespace grs::obs {

namespace {

std::string name_args(const char* fmt, std::uint64_t v) {
  char tmp[64];
  std::snprintf(tmp, sizeof tmp, fmt, v);
  return tmp;
}

TraceEvent meta_process(std::uint32_t pid, const std::string& name) {
  TraceEvent e;
  e.ph = 'M';
  e.name = "process_name";
  e.pid = pid;
  e.args_json = "{\"name\":\"" + name + "\"}";
  return e;
}

TraceEvent meta_thread(std::uint32_t pid, std::uint32_t tid, const std::string& name) {
  TraceEvent e;
  e.ph = 'M';
  e.name = "thread_name";
  e.pid = pid;
  e.tid = tid;
  e.args_json = "{\"name\":\"" + name + "\"}";
  return e;
}

}  // namespace

SimObserver::SimObserver(const ObsOptions& opts) : opts_(opts) {
  if (opts_.trace) sink_ = std::make_unique<ChromeTraceSink>();
  if (opts_.timeline_interval != 0)
    timeline_ = std::make_unique<TimelineSampler>(opts_.timeline_interval);
  if (opts_.prof) prof_ = std::make_unique<prof::HostProfiler>();
}

void SimObserver::begin_run(const TraceTopology& topo) {
  num_sms_ = topo.num_sms;
  warp_slots_ = topo.warp_slots;
  dram_banks_per_channel_ = topo.dram_banks_per_channel;
  kernel_ = topo.kernel;
  if (sink_ == nullptr) return;

  open_.assign(static_cast<std::size_t>(topo.num_sms) * topo.warp_slots, WarpState::kNone);
  sink_->begin();
  for (std::uint32_t s = 0; s < topo.num_sms; ++s) {
    const std::uint32_t pid = sm_pid(s);
    sink_->emit(meta_process(pid, "SM " + std::to_string(s)));
    for (std::uint32_t w = 0; w < topo.warp_slots; ++w)
      sink_->emit(meta_thread(pid, warp_tid(w), "warp " + std::to_string(w)));
    for (std::uint32_t b = 0; b < topo.block_slots; ++b)
      sink_->emit(meta_thread(pid, block_tid(b), "block slot " + std::to_string(b)));
    for (std::uint32_t p = 0; p < topo.pairs; ++p)
      sink_->emit(meta_thread(pid, pair_tid(p), "pair " + std::to_string(p)));
    sink_->emit(meta_thread(pid, kL1Tid, "L1"));
  }
  const std::uint32_t mpid = mem_pid(topo.num_sms);
  sink_->emit(meta_process(mpid, "MemSys"));
  for (std::uint32_t b = 0; b < topo.l2_banks; ++b)
    sink_->emit(meta_thread(mpid, l2_bank_tid(b), "L2 bank " + std::to_string(b)));
  for (std::uint32_t c = 0; c < topo.dram_channels; ++c)
    for (std::uint32_t b = 0; b < topo.dram_banks_per_channel; ++b)
      sink_->emit(meta_thread(mpid, dram_bank_tid(c, b, topo.dram_banks_per_channel),
                              "DRAM " + std::to_string(c) + "." + std::to_string(b)));
}

void SimObserver::close_slice(SmId sm, std::uint32_t slot, Cycle now) {
  WarpState& cur = open_[static_cast<std::size_t>(sm) * warp_slots_ + slot];
  if (cur == WarpState::kNone) return;
  TraceEvent e;
  e.ph = 'E';
  e.pid = sm_pid(sm);
  e.tid = warp_tid(slot);
  e.ts = now;
  e.name = to_string(cur);
  e.cat = "warp";
  sink_->emit(e);
  cur = WarpState::kNone;
}

void SimObserver::warp_scan(SmId sm, std::uint32_t slot, Cycle now, WarpState st) {
  WarpState& cur = open_[static_cast<std::size_t>(sm) * warp_slots_ + slot];
  if (cur == st) return;
  close_slice(sm, slot, now);
  TraceEvent e;
  e.ph = 'B';
  e.pid = sm_pid(sm);
  e.tid = warp_tid(slot);
  e.ts = now;
  e.name = to_string(st);
  e.cat = "warp";
  sink_->emit(e);
  cur = st;
}

void SimObserver::warp_issue(SmId sm, std::uint32_t slot, Cycle now, Op op) {
  TraceEvent e;
  e.ph = 'i';
  e.pid = sm_pid(sm);
  e.tid = warp_tid(slot);
  e.ts = now;
  e.name = to_string(op);
  e.cat = "issue";
  sink_->emit(e);
}

void SimObserver::warp_exit(SmId sm, std::uint32_t slot, Cycle now) {
  close_slice(sm, slot, now);
}

void SimObserver::block_launch(SmId sm, std::uint32_t slot, std::uint64_t block_uid, Cycle now,
                               int pair_id, int side, bool owner) {
  TraceEvent e;
  e.ph = 'B';
  e.pid = sm_pid(sm);
  e.tid = block_tid(slot);
  e.ts = now;
  e.name = "block";
  e.cat = "block";
  char tmp[96];
  if (pair_id >= 0) {
    std::snprintf(tmp, sizeof tmp, "{\"uid\":%" PRIu64 ",\"pair\":%d,\"side\":%d,\"owner\":%s}",
                  block_uid, pair_id, side, owner ? "true" : "false");
  } else {
    std::snprintf(tmp, sizeof tmp, "{\"uid\":%" PRIu64 "}", block_uid);
  }
  e.args_json = tmp;
  sink_->emit(e);
}

void SimObserver::block_finish(SmId sm, std::uint32_t slot, std::uint64_t block_uid, Cycle now) {
  TraceEvent e;
  e.ph = 'E';
  e.pid = sm_pid(sm);
  e.tid = block_tid(slot);
  e.ts = now;
  e.name = "block";
  e.cat = "block";
  e.args_json = name_args("{\"uid\":%" PRIu64 "}", block_uid);
  sink_->emit(e);
}

void SimObserver::lock_acquire(SmId sm, std::uint32_t pair, Cycle now, bool reg, int side,
                               std::uint32_t pos, bool owner_seeded) {
  TraceEvent e;
  e.ph = 'i';
  e.pid = sm_pid(sm);
  e.tid = pair_tid(pair);
  e.ts = now;
  e.name = reg ? "reg-acquire" : "smem-acquire";
  e.cat = "sharing";
  char tmp[80];
  std::snprintf(tmp, sizeof tmp, "{\"side\":%d,\"pos\":%u,\"seeds_owner\":%s}", side, pos,
                owner_seeded ? "true" : "false");
  e.args_json = tmp;
  sink_->emit(e);
}

void SimObserver::lock_release_warp(SmId sm, std::uint32_t pair, Cycle now, int side,
                                    std::uint32_t pos) {
  TraceEvent e;
  e.ph = 'i';
  e.pid = sm_pid(sm);
  e.tid = pair_tid(pair);
  e.ts = now;
  e.name = "reg-release";
  e.cat = "sharing";
  char tmp[48];
  std::snprintf(tmp, sizeof tmp, "{\"side\":%d,\"pos\":%u}", side, pos);
  e.args_json = tmp;
  sink_->emit(e);
}

void SimObserver::lock_release_block(SmId sm, std::uint32_t pair, Cycle now, int side) {
  TraceEvent e;
  e.ph = 'i';
  e.pid = sm_pid(sm);
  e.tid = pair_tid(pair);
  e.ts = now;
  e.name = "release-on-finish";
  e.cat = "sharing";
  e.args_json = name_args("{\"side\":%" PRIu64 "}", static_cast<std::uint64_t>(side));
  sink_->emit(e);
}

void SimObserver::ownership_transfer(SmId sm, std::uint32_t pair, Cycle now, int new_side) {
  TraceEvent e;
  e.ph = 'i';
  e.pid = sm_pid(sm);
  e.tid = pair_tid(pair);
  e.ts = now;
  e.name = "ownership-transfer";
  e.cat = "sharing";
  e.args_json = name_args("{\"new_side\":%" PRIu64 "}", static_cast<std::uint64_t>(new_side));
  sink_->emit(e);
}

void SimObserver::l1_transaction(SmId sm, Cycle now, Addr line_addr, L1Outcome outcome,
                                 Cycle done) {
  TraceEvent e;
  e.ph = 'X';
  e.pid = sm_pid(sm);
  e.tid = kL1Tid;
  e.ts = now;
  e.dur = done > now ? done - now : 0;
  e.name = to_string(outcome);
  e.cat = "mem";
  e.args_json = name_args("{\"line\":\"0x%" PRIx64 "\"}", static_cast<std::uint64_t>(line_addr));
  sink_->emit(e);
}

void SimObserver::l2_transaction(std::uint32_t bank, Cycle start, Addr line_addr, bool hit,
                                 bool merge, Cycle done) {
  TraceEvent e;
  e.ph = 'X';
  e.pid = mem_pid(num_sms_);
  e.tid = l2_bank_tid(bank);
  e.ts = start;
  e.dur = done > start ? done - start : 0;
  e.name = hit ? "L2 hit" : (merge ? "L2 merge" : "L2 miss");
  e.cat = "mem";
  e.args_json = name_args("{\"line\":\"0x%" PRIx64 "\"}", static_cast<std::uint64_t>(line_addr));
  sink_->emit(e);
}

void SimObserver::dram_transaction(std::uint32_t channel, std::uint32_t bank, Cycle begin,
                                   Addr line_addr, bool row_hit, Cycle done) {
  TraceEvent e;
  e.ph = 'X';
  e.pid = mem_pid(num_sms_);
  e.tid = dram_bank_tid(channel, bank, dram_banks_per_channel_);
  e.ts = begin;
  e.dur = done > begin ? done - begin : 0;
  e.name = row_hit ? "row hit" : "row miss";
  e.cat = "mem";
  e.args_json = name_args("{\"line\":\"0x%" PRIx64 "\"}", static_cast<std::uint64_t>(line_addr));
  sink_->emit(e);
}

void SimObserver::timeline_sample(Cycle boundary, const std::vector<SmTimelinePoint>& sms,
                                  const GpuTimelinePoint& gpu) {
  GRS_CHECK(timeline_ != nullptr);
  timeline_->sample(boundary, sms, gpu);
}

void SimObserver::finalize(Cycle final_cycle) {
  if (sink_ == nullptr) return;
  for (std::uint32_t s = 0; s < num_sms_; ++s)
    for (std::uint32_t w = 0; w < warp_slots_; ++w) close_slice(s, w, final_cycle);
  std::string other_data = "{\"kernel\":";
  append_json_string(other_data, kernel_);
  other_data += ",\"cycles\":" + std::to_string(final_cycle) + "}";
  sink_->end(other_data);
}

const std::string& SimObserver::trace_json() const {
  static const std::string kEmpty;
  return sink_ ? sink_->str() : kEmpty;
}

std::string SimObserver::timeline_csv() const {
  return timeline_ ? timeline_->csv() : std::string();
}

}  // namespace grs::obs
