// Observability contracts (src/obs, docs/observability.md):
//  * determinism — trace JSON and timeline CSV are byte-identical across
//    exec_mode cycle/event (transition slices + catch-up samples) and across
//    run_sweep worker counts (buffered post-sweep writes);
//  * zero cost when off — a null/disabled observer leaves GpuStats
//    bit-identical to a plain simulate() and produces no output;
//  * format — the trace observer and the timeline sampler render their
//    documented formats byte for byte; trace events carry name/ph/pid/tid/ts
//    with timestamps monotone per (pid, tid) track, the format Perfetto
//    requires, and the footer stays valid JSON whatever the kernel is called;
//  * decomposition — each warp's state slices add up exactly to the SmStats
//    counter of that state, in both exec modes;
//  * telemetry — RunManifest renders the documented v1 schema.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/config.h"
#include "common/hash.h"
#include "gpu/simulator.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "prof/prof.h"
#include "runner/engine.h"
#include "runner/manifest.h"
#include "workloads/format/gkd.h"
#include "workloads/gen/generator.h"
#include "workloads/gen/profile.h"
#include "workloads/suites.h"

namespace grs {
namespace {

KernelInfo shrink(KernelInfo k, std::uint32_t blocks) {
  k.grid_blocks = blocks;
  return k;
}

struct ObsRun {
  SimResult result;
  std::string trace;
  std::string timeline;
};

ObsRun run_observed(GpuConfig cfg, const KernelInfo& kernel, const obs::ObsOptions& opts) {
  obs::SimObserver observer(opts);
  ObsRun r;
  r.result = simulate(cfg, kernel, &observer);
  r.trace = observer.trace_json();
  r.timeline = observer.timeline_csv();
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

// Plain, register sharing and the unroll+dyn runtime. At the 6-8 blocks the
// tests below give 14 SMs, no SM holds both blocks of a pair, so no ownership
// transfers, lock waits or Dyn gating occur (two_sm_machines() covers those).
std::vector<std::pair<std::string, GpuConfig>> trace_configs() {
  return {{"unshared", configs::unshared()},
          {"shared-reg", configs::shared_noopt(Resource::kRegisters, 0.1)},
          {"shared-reg-unroll-dyn", configs::shared_unroll_dyn(Resource::kRegisters, 0.1)}};
}

// --- determinism across execution modes ------------------------------------

struct TracedMachine {
  std::string label;
  GpuConfig cfg;
  KernelInfo kernel;
};

// Machines of two SMs. At 12 blocks each SM holds both blocks of a pair, so
// between them these runs fire every trace hook: register and scratchpad
// lock acquires and releases, ownership transfers, Dyn gating, and every L1,
// L2 and DRAM outcome.
std::vector<TracedMachine> two_sm_machines() {
  const auto two_sms = [](GpuConfig cfg) {
    cfg.num_sms = 2;
    return cfg;
  };
  const GpuConfig owf_dyn = two_sms(configs::shared_owf_unroll_dyn(Resource::kRegisters));
  const GpuConfig lrr_dyn = two_sms(configs::shared_unroll_dyn(Resource::kRegisters));
  return {{"hotspot / owf-unroll-dyn", owf_dyn, shrink(workloads::hotspot(), 12)},
          {"hotspot / lrr-unroll-dyn", lrr_dyn, shrink(workloads::hotspot(), 12)},
          {"b+tree / owf-unroll-dyn", owf_dyn, shrink(workloads::btree(), 12)},
          {"b+tree / lrr-unroll-dyn", lrr_dyn, shrink(workloads::btree(), 12)},
          {"srad1 / owf-smem", two_sms(configs::shared_owf(Resource::kScratchpad)),
           shrink(workloads::srad1(), 12)},
          {"sgemm / unshared", two_sms(configs::unshared()), shrink(workloads::sgemm(), 4)}};
}

// The 14-SM line kDynMshrGolden pins (tests/test_equivalence.cc):
// register_limited seed 2 at 28 blocks, Shared-OWF-Unroll-Dyn, 32 L1 MSHR
// entries. Its Dyn-exposed warps switch between dyn-gated and mshr-full
// without parking, so they open and close the most warp-state intervals.
TracedMachine dyn_mshr_machine() {
  GpuConfig cfg = configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1);
  cfg.l1.mshr_entries = 32;
  return {"register_limited seed 2 / owf-unroll-dyn, 32 MSHRs", cfg,
          shrink(workloads::gen::generate(workloads::gen::register_limited(), 2), 28)};
}

// sha256 over the traces of two_sm_machines(), in order. Any change to the
// trace bytes (format, event order, hook placement) fails it; regenerate it
// from this test's failure output only for a change meant to move them.
constexpr const char* kTwoSmTraceGolden =
    "aac3e8a600b18fbacb8ec2ff4dc7fd514f5b971ba2a73241140e6129657c41c9";

/// The first event line of `trace` with phase `ph`, without its separator.
std::string first_event(const std::string& trace, char ph) {
  const std::string needle = std::string("\"ph\":\"") + ph + '"';
  std::istringstream lines(trace);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(needle) == std::string::npos) continue;
    if (line.back() == ',') line.pop_back();
    return line;
  }
  return {};
}

TEST(ObsTrace, ByteIdenticalAcrossExecModes) {
  std::vector<TracedMachine> machines;
  for (const KernelInfo& k : {shrink(workloads::hotspot(), 8), shrink(workloads::btree(), 8)}) {
    for (const auto& [name, cfg] : trace_configs())
      machines.push_back({k.name + " / " + name, cfg, k});
  }
  machines.push_back(dyn_mshr_machine());
  const std::size_t first_two_sm = machines.size();
  for (TracedMachine& m : two_sm_machines()) machines.push_back(std::move(m));

  obs::ObsOptions opts;
  opts.trace = true;
  std::string all;      // every two-SM trace, in order
  std::string hotspot;  // the first of them
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const TracedMachine& m = machines[i];
    GpuConfig cfg = m.cfg;
    cfg.exec_mode = ExecMode::kCycle;
    const ObsRun naive = run_observed(cfg, m.kernel, opts);
    cfg.exec_mode = ExecMode::kEvent;
    const ObsRun event = run_observed(cfg, m.kernel, opts);
    EXPECT_TRUE(naive.result.stats == event.result.stats) << m.label;
    EXPECT_EQ(naive.trace, event.trace) << m.label;
    EXPECT_FALSE(naive.trace.empty()) << m.label;
    if (i >= first_two_sm) all += event.trace;
    if (i == first_two_sm) hotspot = event.trace;
  }
  EXPECT_EQ(sha256_hex(all), kTwoSmTraceGolden);

  // Each of the eleven hooks renders at least one event in the two-SM traces.
  const std::pair<const char*, const char*> hook_events[] = {
      {"warp_state", "\"name\":\"dyn-gated\",\"ph\":\"B\",\"cat\":\"warp\""},
      {"warp_state", "\"name\":\"lock-wait\",\"ph\":\"B\",\"cat\":\"warp\""},
      {"warp_issue", "\"name\":\"exit\",\"ph\":\"i\",\"cat\":\"issue\""},
      {"warp_state", "\"name\":\"exit-drain\",\"ph\":\"E\",\"cat\":\"warp\""},
      {"block_launch", "\"name\":\"block\",\"ph\":\"B\",\"cat\":\"block\""},
      {"block_finish", "\"name\":\"block\",\"ph\":\"E\",\"cat\":\"block\""},
      {"lock_acquire", "\"name\":\"reg-acquire\",\"ph\":\"i\",\"cat\":\"sharing\""},
      {"lock_acquire", "\"name\":\"smem-acquire\",\"ph\":\"i\",\"cat\":\"sharing\""},
      {"lock_release_warp", "\"name\":\"reg-release\",\"ph\":\"i\",\"cat\":\"sharing\""},
      {"lock_release_block", "\"name\":\"release-on-finish\",\"ph\":\"i\",\"cat\":\"sharing\""},
      {"ownership_transfer", "\"name\":\"ownership-transfer\",\"ph\":\"i\",\"cat\":\"sharing\""},
      {"l1_transaction", "\"name\":\"L1 hit\",\"ph\":\"X\",\"cat\":\"mem\""},
      {"l1_transaction", "\"name\":\"L1 merge\",\"ph\":\"X\",\"cat\":\"mem\""},
      {"l1_transaction", "\"name\":\"L1 miss\",\"ph\":\"X\",\"cat\":\"mem\""},
      {"l1_transaction", "\"name\":\"L1 store\",\"ph\":\"X\",\"cat\":\"mem\""},
      {"l2_transaction", "\"name\":\"L2 hit\",\"ph\":\"X\",\"cat\":\"mem\""},
      {"l2_transaction", "\"name\":\"L2 merge\",\"ph\":\"X\",\"cat\":\"mem\""},
      {"l2_transaction", "\"name\":\"L2 miss\",\"ph\":\"X\",\"cat\":\"mem\""},
      {"dram_transaction", "\"name\":\"row hit\",\"ph\":\"X\",\"cat\":\"mem\""},
      {"dram_transaction", "\"name\":\"row miss\",\"ph\":\"X\",\"cat\":\"mem\""},
  };
  for (const auto& [hook, event] : hook_events)
    EXPECT_NE(all.find(event), std::string::npos) << hook << ": " << event;

  // The format byte for byte, on the first two-SM trace: its envelope, and
  // the first line of each phase. Keys come in the order name, ph, cat,
  // pid, tid, ts (all but metadata), dur ('X'), the thread scope of
  // instants, args.
  const std::string header = "{\"traceEvents\":[\n";
  const std::string trailer =
      "\n],\n\"displayTimeUnit\":\"ns\",\n"
      "\"otherData\":{\"kernel\":\"hotspot\",\"cycles\":20469}\n}\n";
  ASSERT_GE(hotspot.size(), header.size() + trailer.size());
  EXPECT_EQ(hotspot.substr(0, header.size()), header);
  EXPECT_EQ(hotspot.substr(hotspot.size() - trailer.size()), trailer);
  EXPECT_EQ(first_event(hotspot, 'M'),
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"name\":\"SM 0\"}}");
  EXPECT_EQ(first_event(hotspot, 'B'),
            "{\"name\":\"block\",\"ph\":\"B\",\"cat\":\"block\",\"pid\":1,\"tid\":1001,\"ts\":0,"
            "\"args\":{\"uid\":0,\"pair\":0,\"side\":0,\"owner\":true}}");
  EXPECT_EQ(first_event(hotspot, 'E'),
            "{\"name\":\"eligible\",\"ph\":\"E\",\"cat\":\"warp\",\"pid\":1,\"tid\":1,\"ts\":2}");
  EXPECT_EQ(first_event(hotspot, 'i'),
            "{\"name\":\"ld.global\",\"ph\":\"i\",\"cat\":\"issue\",\"pid\":1,\"tid\":1,\"ts\":1,"
            "\"s\":\"t\"}");
  EXPECT_EQ(first_event(hotspot, 'X'),
            "{\"name\":\"L2 miss\",\"ph\":\"X\",\"cat\":\"mem\",\"pid\":3,\"tid\":5,\"ts\":61,"
            "\"dur\":214,\"args\":{\"line\":\"0x100000f700\"}}");
}

/// The cycle column of every "gpu" row of a timeline CSV, in file order.
std::vector<Cycle> gpu_row_cycles(const std::string& csv) {
  std::vector<Cycle> cycles;
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t comma = line.find(',');
    if (line.compare(comma + 1, 4, "gpu,") == 0) cycles.push_back(std::stoull(line));
  }
  return cycles;
}

TEST(ObsTimeline, ByteIdenticalAcrossExecModes) {
  // Memory-bound kernel: the event loop sleeps through long idle windows, so
  // a small interval forces catch-up samples inside sleep/jump regions.
  const KernelInfo k = shrink(workloads::btree(), 12);
  for (const Cycle interval : {50u, 1000u}) {
    obs::ObsOptions opts;
    opts.timeline_interval = interval;
    GpuConfig cfg = configs::unshared();
    cfg.exec_mode = ExecMode::kCycle;
    const ObsRun naive = run_observed(cfg, k, opts);
    cfg.exec_mode = ExecMode::kEvent;
    const ObsRun event = run_observed(cfg, k, opts);
    EXPECT_TRUE(naive.result.stats == event.result.stats) << interval;
    EXPECT_EQ(naive.timeline, event.timeline) << "interval " << interval;
    EXPECT_NE(naive.timeline.find("cycle,sm,issued,stall,idle"), std::string::npos);
    // One block per boundary, closed by its gpu row: boundaries are every
    // multiple of the interval up to the run's last cycle, each exactly once.
    const Cycle last = naive.result.stats.cycles;
    std::vector<Cycle> boundaries;
    for (Cycle b = interval; b <= last; b += interval) boundaries.push_back(b);
    EXPECT_FALSE(boundaries.empty()) << interval;
    EXPECT_EQ(gpu_row_cycles(naive.timeline), boundaries) << "interval " << interval;
  }
}

/// An SM sample whose 17 counters are k, 2k, ..., 17k and whose 3 gauges are
/// 18k, 19k, 20k, in timeline column order: every column of a row differs, so
/// a swapped or dropped column changes the CSV.
obs::SmTimelinePoint sm_sample(std::uint64_t k) {
  obs::SmTimelinePoint p;
  SmStats& s = p.stats;
  s.issued_cycles = k;
  s.stall_cycles = 2 * k;
  s.idle_cycles = 3 * k;
  s.warp_instructions = 4 * k;
  s.thread_instructions = 5 * k;
  s.blocked_scoreboard = 6 * k;
  s.blocked_barrier = 7 * k;
  s.blocked_mshr = 8 * k;
  s.blocked_lsu_port = 9 * k;
  s.blocked_lsu_inflight = 10 * k;
  s.blocked_sfu_port = 11 * k;
  s.lock_wait_cycles = 12 * k;
  s.dyn_throttled_issues = 13 * k;
  s.lock_acquisitions = 14 * k;
  s.ownership_transfers = 15 * k;
  s.l1_accesses = 16 * k;
  s.l1_misses = 17 * k;
  p.resident_blocks = static_cast<std::uint32_t>(18 * k);
  p.resident_warps = static_cast<std::uint32_t>(19 * k);
  p.mshr_inflight = static_cast<std::uint32_t>(20 * k);
  return p;
}

/// The memory-system columns, 21k..26k in column order.
obs::GpuTimelinePoint gpu_sample(std::uint64_t k) {
  obs::GpuTimelinePoint g;
  g.l2_accesses = 21 * k;
  g.l2_misses = 22 * k;
  g.dram_requests = 23 * k;
  g.dram_row_hits = 24 * k;
  g.l2_busy_banks = static_cast<std::uint32_t>(25 * k);
  g.dram_busy_banks = static_cast<std::uint32_t>(26 * k);
  return g;
}

TEST(ObsTimeline, SamplerRendersDocumentedCsv) {
  // The timeline format, byte for byte (docs/observability.md): the header;
  // per boundary one row per SM in SM order, then one gpu row. SM rows carry
  // window deltas of the counters, the window ipc and the gauges' current
  // values, and leave the six L2/DRAM columns empty; the gpu row sums the SM
  // rows and fills the L2/DRAM columns.
  obs::TimelineSampler sampler(100);
  sampler.sample(100, {sm_sample(1), sm_sample(10)}, gpu_sample(100));
  sampler.sample(200, {sm_sample(3), sm_sample(30)}, gpu_sample(300));
  EXPECT_EQ(sampler.csv(),
            "cycle,sm,issued,stall,idle,warp_instr,thread_instr,ipc,"
            "blk_scoreboard,blk_barrier,blk_mshr,blk_lsu_port,blk_lsu_queue,blk_sfu_port,"
            "lock_wait,dyn_throttled,lock_acquired,ownership_transfers,"
            "l1_accesses,l1_misses,resident_blocks,resident_warps,mshr_inflight,"
            "l2_accesses,l2_misses,dram_requests,dram_row_hits,l2_busy_banks,dram_busy_banks\n"
            "100,0,1,2,3,4,5,0.0500,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,,,,,,\n"
            "100,1,10,20,30,40,50,0.5000,60,70,80,90,100,110,120,130,140,150,160,170,"
            "180,190,200,,,,,,\n"
            "100,gpu,11,22,33,44,55,0.5500,66,77,88,99,110,121,132,143,154,165,176,187,"
            "198,209,220,2100,2200,2300,2400,2500,2600\n"
            "200,0,2,4,6,8,10,0.1000,12,14,16,18,20,22,24,26,28,30,32,34,54,57,60,,,,,,\n"
            "200,1,20,40,60,80,100,1.0000,120,140,160,180,200,220,240,260,280,300,320,340,"
            "540,570,600,,,,,,\n"
            "200,gpu,22,44,66,88,110,1.1000,132,154,176,198,220,242,264,286,308,330,352,374,"
            "594,627,660,4200,4400,4600,4800,7500,7800\n");
}

TEST(ObsTimeline, DynThrottledLineAcrossExecModes) {
  const KernelInfo k = shrink(workloads::btree(), 12);
  obs::ObsOptions opts;
  opts.timeline_interval = 128;
  GpuConfig cfg = configs::shared_unroll_dyn(Resource::kRegisters, 0.1);
  cfg.exec_mode = ExecMode::kCycle;
  const ObsRun naive = run_observed(cfg, k, opts);
  cfg.exec_mode = ExecMode::kEvent;
  const ObsRun event = run_observed(cfg, k, opts);
  EXPECT_EQ(naive.timeline, event.timeline);
}

// l2_thrash at 8 blocks, unshared: its loads wait at a full L1 MSHR, so its
// trace has mshr-full slices. The sha256 of its trace and of its timeline,
// the same in both exec modes; any change to when such a warp is decided
// (or woken) that moves a slice or a sample fails them.
constexpr const char* kL2ThrashTraceGolden =
    "a34e8e3245f52633d8da83ee237e07a6cabfc025619eacf57823e3df47797fc5";
constexpr const char* kL2ThrashTimelineGolden =
    "26106535ee56ee1d5df55acc3beb6a3bf004dd11462bf3988cd5b739e3c09efe";

TEST(ObsTrace, MshrBoundRunMatchesItsGoldensInBothModes) {
  const KernelInfo k = shrink(
      workloads::gkd::load_file(std::string(GRS_SOURCE_DIR) + "/examples/kernels/l2_thrash.gkd"),
      8);
  obs::ObsOptions opts;
  opts.trace = true;
  opts.timeline_interval = 100;
  for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
    GpuConfig cfg = configs::unshared();
    cfg.exec_mode = mode;
    const ObsRun run = run_observed(cfg, k, opts);
    EXPECT_NE(run.trace.find("\"name\":\"mshr-full\",\"ph\":\"B\""), std::string::npos)
        << to_string(mode);
    EXPECT_EQ(sha256_hex(run.trace), kL2ThrashTraceGolden) << to_string(mode);
    EXPECT_EQ(sha256_hex(run.timeline), kL2ThrashTimelineGolden) << to_string(mode);
  }
}

// --- zero cost when off -----------------------------------------------------

TEST(ObsOff, StatsIdenticalWithTracingOnOrOff) {
  const KernelInfo k = shrink(workloads::hotspot(), 8);
  for (const auto& [name, cfg] : trace_configs()) {
    const SimResult plain = simulate(cfg, k);
    const SimResult with_null = simulate(cfg, k, nullptr);
    obs::ObsOptions opts;
    opts.trace = true;
    opts.timeline_interval = 100;
    const ObsRun observed = run_observed(cfg, k, opts);
    EXPECT_TRUE(plain.stats == with_null.stats) << name;
    EXPECT_TRUE(plain.stats == observed.result.stats) << name;
    EXPECT_EQ(plain.occupancy.total_blocks, observed.result.occupancy.total_blocks) << name;
  }
}

TEST(ObsOff, DisabledObserverProducesNoOutput) {
  const obs::ObsOptions off;  // trace=false, timeline off
  EXPECT_FALSE(off.any());
  obs::SimObserver observer(off);
  EXPECT_FALSE(observer.trace_enabled());
  EXPECT_EQ(observer.profiler(), nullptr);
  const SimResult r = simulate(configs::unshared(), shrink(workloads::hotspot(), 4),
                               &observer);
  EXPECT_GT(r.stats.cycles, 0u);
  EXPECT_TRUE(observer.trace_json().empty());
  EXPECT_TRUE(observer.timeline_csv().empty());
}

// --- trace shape ------------------------------------------------------------

/// Extract `"key":<number>` from a one-event JSON line; -1 when absent.
std::int64_t json_num(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + needle.size(), nullptr, 10);
}

TEST(ObsTrace, EventsCarryCoordinatesAndMonotoneTimestampsPerTrack) {
  obs::ObsOptions opts;
  opts.trace = true;
  const ObsRun run = run_observed(configs::shared_unroll_dyn(Resource::kRegisters, 0.1),
                                  shrink(workloads::btree(), 8), opts);
  ASSERT_EQ(run.trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(run.trace.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"otherData\""), std::string::npos);

  std::istringstream lines(run.trace);
  std::string line;
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> last_ts;
  std::size_t events = 0, meta = 0;
  while (std::getline(lines, line)) {
    const std::size_t ph_at = line.find("\"ph\":\"");
    if (ph_at == std::string::npos) continue;
    const char ph = line[ph_at + 6];
    ASSERT_NE(line.find("\"name\":"), std::string::npos) << line;
    const std::int64_t pid = json_num(line, "pid");
    const std::int64_t tid = json_num(line, "tid");
    ASSERT_GE(pid, 0) << line;
    ASSERT_GE(tid, 0) << line;
    if (ph == 'M') {
      ++meta;
      continue;  // metadata records carry no timestamp
    }
    ++events;
    const std::int64_t ts = json_num(line, "ts");
    ASSERT_GE(ts, 0) << line;
    if (ph == 'X') {
      ASSERT_GE(json_num(line, "dur"), 0) << line;
    }
    auto [it, fresh] = last_ts.emplace(std::make_pair(pid, tid), ts);
    if (!fresh) {
      ASSERT_LE(it->second, ts) << "ts regressed on track (" << pid << "," << tid
                                << "): " << line;
      it->second = ts;
    }
  }
  EXPECT_GT(meta, 0u);
  EXPECT_GT(events, 0u);
}

TEST(ObsTrace, FooterKeepsQuotedAndLongKernelNamesIntact) {
  obs::ObsOptions opts;
  opts.trace = true;
  const std::pair<std::string, std::string> names[] = {
      {"q\"uo\\te", "q\\\"uo\\\\te"},                  // quote and backslash escaped
      {std::string(150, 'k'), std::string(150, 'k')},  // longer than any fixed buffer
  };
  for (const auto& [name, escaped] : names) {
    KernelInfo k = shrink(workloads::hotspot(), 2);
    k.name = name;
    const ObsRun run = run_observed(configs::unshared(), k, opts);
    const std::string footer = "\"otherData\":{\"kernel\":\"" + escaped + "\",\"cycles\":" +
                               std::to_string(run.result.stats.cycles) + "}\n}\n";
    ASSERT_GE(run.trace.size(), footer.size());
    EXPECT_EQ(run.trace.substr(run.trace.size() - footer.size()), footer) << name;
  }
}

/// Sums the length (E.ts - B.ts) of every warp-state slice of a rendered
/// trace, by slice name.
std::map<std::string, std::uint64_t> warp_slice_cycles(const std::string& trace) {
  std::map<std::string, std::uint64_t> cycles;
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> open;
  std::istringstream lines(trace);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"cat\":\"warp\"") == std::string::npos) continue;
    const auto track = std::make_pair(json_num(line, "pid"), json_num(line, "tid"));
    if (line.find("\"ph\":\"B\"") != std::string::npos) {
      open[track] = json_num(line, "ts");
    } else if (line.find("\"ph\":\"E\"") != std::string::npos) {
      EXPECT_EQ(open.count(track), 1u) << "E without B on warp track: " << line;
      const std::size_t name = line.find("\"name\":\"") + 8;
      cycles[line.substr(name, line.find('"', name) - name)] += json_num(line, "ts") - open[track];
      open.erase(track);
    }
  }
  return cycles;
}

TEST(ObsTrace, WarpSlicesSumToBlockedCounters) {
  using Counter = std::uint64_t SmStats::*;
  const std::pair<const char*, Counter> slice_counters[] = {
      {"barrier", &SmStats::blocked_barrier},
      {"scoreboard", &SmStats::blocked_scoreboard},
      {"lock-wait", &SmStats::lock_wait_cycles},
      {"dyn-gated", &SmStats::dyn_throttled_issues},
      {"lsu-port", &SmStats::blocked_lsu_port},
      {"lsu-queue", &SmStats::blocked_lsu_inflight},
      {"mshr-full", &SmStats::blocked_mshr},
      {"sfu-port", &SmStats::blocked_sfu_port},
  };
  struct Case {
    GpuConfig cfg;
    KernelInfo kernel;
    std::vector<Counter> exercised;  ///< counters this run must drive above zero
  };
  const std::string dir = std::string(GRS_SOURCE_DIR) + "/examples/kernels/";
  const TracedMachine dyn_mshr = dyn_mshr_machine();
  GpuConfig capped = configs::unshared();
  capped.max_cycles = 1234;
  const Case cases[] = {
      {configs::shared_owf_unroll_dyn(Resource::kRegisters), shrink(workloads::hotspot(), 28),
       {&SmStats::lock_wait_cycles, &SmStats::dyn_throttled_issues, &SmStats::blocked_lsu_port}},
      {configs::unshared(), workloads::gkd::load_file(dir + "staged_reduce.gkd"),
       {&SmStats::blocked_barrier, &SmStats::blocked_scoreboard}},
      {configs::unshared(), shrink(workloads::gkd::load_file(dir + "l2_thrash.gkd"), 8),
       {&SmStats::blocked_mshr}},
      {dyn_mshr.cfg, dyn_mshr.kernel,
       {&SmStats::dyn_throttled_issues, &SmStats::blocked_mshr}},
      // Cut by the cap with slices still open: they end where stats(c) ends
      // their intervals, one past the last cycle.
      {capped, shrink(workloads::hotspot(), 8), {&SmStats::blocked_scoreboard}},
  };
  for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
    for (const Case& c : cases) {
      GpuConfig cfg = c.cfg;
      cfg.exec_mode = mode;
      obs::ObsOptions opts;
      opts.trace = true;
      const ObsRun run = run_observed(cfg, c.kernel, opts);
      const SmStats& s = run.result.stats.sm_total;
      std::map<std::string, std::uint64_t> cycles = warp_slice_cycles(run.trace);
      const std::string label = c.kernel.name + " / " + to_string(mode);
      for (const auto& [slice, counter] : slice_counters)
        EXPECT_EQ(cycles[slice], s.*counter) << label << " / " << slice;
      for (const Counter counter : c.exercised) EXPECT_GT(s.*counter, 0u) << label;
    }
  }
}

// --- engine integration -----------------------------------------------------

runner::SweepSpec small_spec() {
  runner::SweepSpec spec;
  const KernelInfo k = shrink(workloads::hotspot(), 6);
  for (const auto& [name, cfg] : trace_configs()) spec.add(name, cfg, k);
  return spec;
}

TEST(ObsEngine, SweepFilesByteIdenticalAcrossThreadCounts) {
  namespace fs = std::filesystem;
  const std::string root = testing::TempDir() + "/grs_obs_threads";
  fs::remove_all(root);
  const runner::SweepSpec spec = small_spec();
  std::vector<std::vector<runner::SweepRow>> all_rows;
  for (const unsigned threads : {1u, 8u}) {
    const std::string dir = root + "/t" + std::to_string(threads);
    fs::create_directories(dir);
    runner::RunOptions options;
    options.threads = threads;
    options.trace_path = dir + "/trace.json";
    options.timeline_path = dir + "/timeline.csv";
    options.timeline_interval = 200;
    all_rows.push_back(runner::run_sweep(spec, options));
  }
  for (std::size_t i = 0; i < spec.points.size(); ++i) {
    const std::string suffix = "." + std::to_string(i);
    EXPECT_EQ(slurp(root + "/t1/trace" + suffix + ".json"),
              slurp(root + "/t8/trace" + suffix + ".json"))
        << i;
    EXPECT_EQ(slurp(root + "/t1/timeline" + suffix + ".csv"),
              slurp(root + "/t8/timeline" + suffix + ".csv"))
        << i;
    EXPECT_TRUE(all_rows[0][i].result.stats == all_rows[1][i].result.stats) << i;
  }
}

TEST(ObsEngine, EveryPillarOnOneObserver) {
  // Trace, timeline and profiler share one observer per machine without
  // disturbing each other: the files match a trace+timeline run byte for
  // byte, and the profile matches a profile-only run call for call, plus one
  // timeline_sample call per gpu row the timeline files carry.
  namespace fs = std::filesystem;
  const std::string root = testing::TempDir() + "/grs_obs_all_pillars";
  fs::remove_all(root);
  const runner::SweepSpec spec = small_spec();
  const auto files_options = [&](const std::string& dir, unsigned threads) {
    fs::create_directories(dir);
    runner::RunOptions options;
    options.threads = threads;
    options.trace_path = dir + "/trace.json";
    options.timeline_path = dir + "/timeline.csv";
    options.timeline_interval = 200;
    return options;
  };

  (void)runner::run_sweep(spec, files_options(root + "/files-only", 1));
  prof::HostProfiler profile_only;
  runner::RunOptions prof_options;
  prof_options.threads = 1;
  prof_options.prof = &profile_only;
  (void)runner::run_sweep(spec, prof_options);

  for (const unsigned threads : {1u, 2u}) {
    const std::string dir = root + "/all-t" + std::to_string(threads);
    prof::HostProfiler all;
    runner::RunOptions options = files_options(dir, threads);
    options.prof = &all;
    (void)runner::run_sweep(spec, options);

    std::uint64_t gpu_rows = 0;
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
      const std::string suffix = "." + std::to_string(i);
      EXPECT_EQ(slurp(dir + "/trace" + suffix + ".json"),
                slurp(root + "/files-only/trace" + suffix + ".json"))
          << threads << " / " << i;
      const std::string timeline = slurp(dir + "/timeline" + suffix + ".csv");
      EXPECT_EQ(timeline, slurp(root + "/files-only/timeline" + suffix + ".csv"))
          << threads << " / " << i;
      gpu_rows += gpu_row_cycles(timeline).size();
    }
    EXPECT_GT(gpu_rows, 0u);
    for (std::size_t k = 0; k < prof::kNumPhases; ++k) {
      const auto phase = static_cast<prof::Phase>(k);
      const std::uint64_t expected =
          phase == prof::Phase::kTimeline ? gpu_rows : profile_only.calls(phase);
      EXPECT_EQ(all.calls(phase), expected) << threads << " / " << prof::to_string(phase);
    }
  }
}

TEST(ObsEngine, ObservedRunsBypassTheResultCache) {
  namespace fs = std::filesystem;
  const std::string root = testing::TempDir() + "/grs_obs_cache_bypass";
  fs::remove_all(root);
  fs::create_directories(root + "/out");
  runner::RunOptions options;
  options.threads = 1;
  options.cache_dir = root + "/cache";
  options.cache_mode = cache::CacheMode::kReadWrite;
  options.trace_path = root + "/out/trace.json";
  const std::vector<runner::SweepRow> rows = runner::run_sweep(small_spec(), options);
  for (const runner::SweepRow& row : rows) {
    EXPECT_FALSE(row.from_cache);
  }
  // The cache is bypassed entirely: never even opened, so nothing on disk.
  EXPECT_FALSE(fs::exists(root + "/cache"));
}

TEST(ObsEngine, PointPathNaming) {
  EXPECT_EQ(runner::obs_point_path("trace.json", 3, 1), "trace.json");
  EXPECT_EQ(runner::obs_point_path("trace.json", 3, 5), "trace.3.json");
  EXPECT_EQ(runner::obs_point_path("a/b.json", 2, 5), "a/b.2.json");
  EXPECT_EQ(runner::obs_point_path("noext", 2, 5), "noext.2");
  EXPECT_EQ(runner::obs_point_path("dir.d/file", 2, 5), "dir.d/file.2");
}

TEST(ObsEngine, RowsCarryWallClockTelemetry) {
  runner::RunOptions options;
  options.threads = 1;
  const std::vector<runner::SweepRow> rows = runner::run_sweep(small_spec(), options);
  for (const runner::SweepRow& row : rows) {
    EXPECT_GE(row.wall_ms, 0.0);
    EXPECT_FALSE(row.from_cache);
  }
}

// --- run manifest -----------------------------------------------------------

TEST(ObsManifest, RendersV1SchemaWithSweepsAndCache) {
  const std::vector<runner::SweepRow> rows = runner::run_sweep(small_spec(), {});
  runner::RunManifest manifest("test-tool");
  manifest.add_sweep("unit", rows, 0.5, 2);
  cache::CacheStats stats;
  stats.hits = 3;
  stats.misses = 1;
  manifest.set_cache_stats(stats);
  const std::string json = manifest.to_json();
  for (const char* key :
       {"\"schema\":\"grs-run-manifest-v1\"", "\"tool\":\"test-tool\"", "\"host\"",
        "\"hardware_threads\"", "\"cache\"", "\"hits\":3", "\"sweeps\"",
        "\"name\":\"unit\"", "\"threads\":2", "\"sims_per_second\"",
        "\"pool_utilization\"", "\"cells\"", "\"config_fingerprint\"", "\"wall_ms\"",
        "\"from_cache\"", "\"cycles\"", "\"ipc\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Every cell records the 64-hex config fingerprint the cache keys on.
  EXPECT_NE(json.find(rows[0].point.config.fingerprint()), std::string::npos);

  const std::string path = testing::TempDir() + "/grs_obs_manifest.json";
  manifest.write(path);
  EXPECT_EQ(slurp(path), json);
}

TEST(ObsManifest, WriteFailureThrows) {
  runner::RunManifest manifest("test-tool");
  EXPECT_THROW(manifest.write("/nonexistent-dir-xyz/manifest.json"), std::runtime_error);
}

// --- host clock -------------------------------------------------------------

TEST(ObsClock, MonotonicAndNonNegative) {
  const double a = monotonic_seconds();
  const double b = monotonic_seconds();
  EXPECT_LE(a, b);
  WallTimer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.restart();
  EXPECT_GE(t.seconds(), 0.0);
}

}  // namespace
}  // namespace grs
