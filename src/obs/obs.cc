#include "obs/obs.h"

#include <cinttypes>
#include <cstdio>

#include "common/check.h"
#include "common/format.h"
#include "common/json.h"

namespace grs::obs {

namespace {

// --- trace address scheme (documented in docs/observability.md) ------------
// Perfetto renders pid as a process group and tid as a track. SMs are
// processes 1..num_sms; the shared memory system is process num_sms+1.
// Within an SM process: warps, block slots, pairs, and the L1 get disjoint
// tid ranges so tracks sort naturally.

constexpr std::uint32_t sm_pid(SmId sm) { return sm + 1; }
constexpr std::uint32_t mem_pid(std::uint32_t num_sms) { return num_sms + 1; }

constexpr std::uint32_t warp_tid(std::uint32_t slot) { return 1 + slot; }
constexpr std::uint32_t block_tid(std::uint32_t slot) { return 1001 + slot; }
constexpr std::uint32_t pair_tid(std::uint32_t pair) { return 2001 + pair; }
constexpr std::uint32_t kL1Tid = 3001;

constexpr std::uint32_t l2_bank_tid(std::uint32_t bank) { return 1 + bank; }
constexpr std::uint32_t dram_bank_tid(std::uint32_t channel, std::uint32_t bank,
                                      std::uint32_t banks_per_channel) {
  return 1001 + channel * banks_per_channel + bank;
}

/// Renders `{"line":"0x<hex>"}`, the args of every memory span, into `buf`.
const char* line_args(char (&buf)[40], Addr line) {
  std::snprintf(buf, sizeof buf, "{\"line\":\"0x%" PRIx64 "\"}", static_cast<std::uint64_t>(line));
  return buf;
}

Cycle span(Cycle start, Cycle done) { return done > start ? done - start : 0; }

}  // namespace

SimObserver::SimObserver(const ObsOptions& opts) : opts_(opts) {
  if (opts_.timeline_interval != 0)
    timeline_ = std::make_unique<TimelineSampler>(opts_.timeline_interval);
  if (opts_.prof) prof_ = std::make_unique<prof::HostProfiler>();
}

void SimObserver::event(char ph, std::uint32_t pid, std::uint32_t tid, Cycle ts, const char* name,
                        const char* cat, const char* args, Cycle dur) {
  // The header ends in a newline and every event in '}'. Names and
  // categories are static strings that need no JSON escaping.
  if (trace_.back() == '}') trace_ += ",\n";
  trace_ += "{\"name\":\"";
  trace_ += name;
  trace_ += "\",\"ph\":\"";
  trace_ += ph;
  trace_ += '"';
  if (cat != nullptr) {
    trace_ += ",\"cat\":\"";
    trace_ += cat;
    trace_ += '"';
  }
  trace_ += ",\"pid\":";
  append_u64(trace_, pid);
  trace_ += ",\"tid\":";
  append_u64(trace_, tid);
  if (ph != 'M') {
    trace_ += ",\"ts\":";
    append_u64(trace_, ts);
  }
  if (ph == 'X') {
    trace_ += ",\"dur\":";
    append_u64(trace_, dur);
  }
  if (ph == 'i') trace_ += ",\"s\":\"t\"";  // instant scope: thread
  if (args != nullptr) {
    trace_ += ",\"args\":";
    trace_ += args;
  }
  trace_ += '}';
}

void SimObserver::begin_run(const TraceTopology& topo) {
  num_sms_ = topo.num_sms;
  dram_banks_per_channel_ = topo.dram_banks_per_channel;
  kernel_ = topo.kernel;
  if (!opts_.trace) return;

  trace_ = "{\"traceEvents\":[\n";
  // Metadata records name every process and track before any event.
  const auto meta = [this](const char* record, std::uint32_t pid, std::uint32_t tid,
                           const std::string& name) {
    event('M', pid, tid, 0, record, nullptr, ("{\"name\":\"" + name + "\"}").c_str());
  };
  for (std::uint32_t s = 0; s < topo.num_sms; ++s) {
    const std::uint32_t pid = sm_pid(s);
    meta("process_name", pid, 0, "SM " + std::to_string(s));
    for (std::uint32_t w = 0; w < topo.warp_slots; ++w)
      meta("thread_name", pid, warp_tid(w), "warp " + std::to_string(w));
    for (std::uint32_t b = 0; b < topo.block_slots; ++b)
      meta("thread_name", pid, block_tid(b), "block slot " + std::to_string(b));
    for (std::uint32_t p = 0; p < topo.pairs; ++p)
      meta("thread_name", pid, pair_tid(p), "pair " + std::to_string(p));
    meta("thread_name", pid, kL1Tid, "L1");
  }
  const std::uint32_t mpid = mem_pid(topo.num_sms);
  meta("process_name", mpid, 0, "MemSys");
  for (std::uint32_t b = 0; b < topo.l2_banks; ++b)
    meta("thread_name", mpid, l2_bank_tid(b), "L2 bank " + std::to_string(b));
  for (std::uint32_t c = 0; c < topo.dram_channels; ++c)
    for (std::uint32_t b = 0; b < topo.dram_banks_per_channel; ++b)
      meta("thread_name", mpid, dram_bank_tid(c, b, topo.dram_banks_per_channel),
           "DRAM " + std::to_string(c) + "." + std::to_string(b));
}

void SimObserver::warp_state(SmId sm, std::uint32_t slot, Cycle now, WarpState from,
                             WarpState to) {
  const std::uint32_t pid = sm_pid(sm);
  if (from != WarpState::kNone) event('E', pid, warp_tid(slot), now, to_string(from), "warp");
  if (to != WarpState::kNone) event('B', pid, warp_tid(slot), now, to_string(to), "warp");
}

void SimObserver::warp_issue(SmId sm, std::uint32_t slot, Cycle now, Op op) {
  event('i', sm_pid(sm), warp_tid(slot), now, to_string(op), "issue");
}

void SimObserver::block_launch(SmId sm, std::uint32_t slot, std::uint64_t block_uid, Cycle now,
                               int pair_id, int side, bool owner) {
  char args[96];
  if (pair_id >= 0) {
    std::snprintf(args, sizeof args, "{\"uid\":%" PRIu64 ",\"pair\":%d,\"side\":%d,\"owner\":%s}",
                  block_uid, pair_id, side, owner ? "true" : "false");
  } else {
    std::snprintf(args, sizeof args, "{\"uid\":%" PRIu64 "}", block_uid);
  }
  event('B', sm_pid(sm), block_tid(slot), now, "block", "block", args);
}

void SimObserver::block_finish(SmId sm, std::uint32_t slot, std::uint64_t block_uid, Cycle now) {
  char args[40];
  std::snprintf(args, sizeof args, "{\"uid\":%" PRIu64 "}", block_uid);
  event('E', sm_pid(sm), block_tid(slot), now, "block", "block", args);
}

void SimObserver::lock_acquire(SmId sm, std::uint32_t pair, Cycle now, bool reg, int side,
                               std::uint32_t pos, bool owner_seeded) {
  char args[80];
  std::snprintf(args, sizeof args, "{\"side\":%d,\"pos\":%u,\"seeds_owner\":%s}", side, pos,
                owner_seeded ? "true" : "false");
  event('i', sm_pid(sm), pair_tid(pair), now, reg ? "reg-acquire" : "smem-acquire", "sharing",
        args);
}

void SimObserver::lock_release_warp(SmId sm, std::uint32_t pair, Cycle now, int side,
                                    std::uint32_t pos) {
  char args[48];
  std::snprintf(args, sizeof args, "{\"side\":%d,\"pos\":%u}", side, pos);
  event('i', sm_pid(sm), pair_tid(pair), now, "reg-release", "sharing", args);
}

void SimObserver::lock_release_block(SmId sm, std::uint32_t pair, Cycle now, int side) {
  char args[32];
  std::snprintf(args, sizeof args, "{\"side\":%d}", side);
  event('i', sm_pid(sm), pair_tid(pair), now, "release-on-finish", "sharing", args);
}

void SimObserver::ownership_transfer(SmId sm, std::uint32_t pair, Cycle now, int new_side) {
  char args[32];
  std::snprintf(args, sizeof args, "{\"new_side\":%d}", new_side);
  event('i', sm_pid(sm), pair_tid(pair), now, "ownership-transfer", "sharing", args);
}

void SimObserver::l1_transaction(SmId sm, Cycle now, Addr line_addr, L1Outcome outcome,
                                 Cycle done) {
  char args[40];
  event('X', sm_pid(sm), kL1Tid, now, to_string(outcome), "mem", line_args(args, line_addr),
        span(now, done));
}

void SimObserver::l2_transaction(std::uint32_t bank, Cycle start, Addr line_addr, bool hit,
                                 bool merge, Cycle done) {
  char args[40];
  event('X', mem_pid(num_sms_), l2_bank_tid(bank), start,
        hit ? "L2 hit" : (merge ? "L2 merge" : "L2 miss"), "mem", line_args(args, line_addr),
        span(start, done));
}

void SimObserver::dram_transaction(std::uint32_t channel, std::uint32_t bank, Cycle begin,
                                   Addr line_addr, bool row_hit, Cycle done) {
  char args[40];
  event('X', mem_pid(num_sms_), dram_bank_tid(channel, bank, dram_banks_per_channel_), begin,
        row_hit ? "row hit" : "row miss", "mem", line_args(args, line_addr), span(begin, done));
}

void SimObserver::timeline_sample(Cycle boundary, const std::vector<SmTimelinePoint>& sms,
                                  const GpuTimelinePoint& gpu) {
  GRS_CHECK(timeline_ != nullptr);
  timeline_->sample(boundary, sms, gpu);
}

void SimObserver::finalize(Cycle final_cycle) {
  if (!opts_.trace) return;
  trace_ += "\n],\n\"displayTimeUnit\":\"ns\",\n\"otherData\":{\"kernel\":";
  append_json_string(trace_, kernel_);
  trace_ += ",\"cycles\":";
  append_u64(trace_, final_cycle);
  trace_ += "}\n}\n";
}

std::string SimObserver::timeline_csv() const {
  return timeline_ ? timeline_->csv() : std::string();
}

}  // namespace grs::obs
