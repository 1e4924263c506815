// Trace-driven memory profiles: reader parsing and errors, histogram
// reduction on hand-built traces, deterministic profile-backed address
// sampling, .gkd profile-section round-trips, the lint validator, the saved
// corpus, and cycle/event bit-identity for profile-carrying kernels.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "gpu/simulator.h"
#include "memory/coalescer.h"
#include "workloads/format/gkd.h"
#include "workloads/gen/generator.h"
#include "workloads/trace/import.h"
#include "workloads/trace/reduce.h"
#include "workloads/trace/trace_reader.h"
#include "workloads/validate.h"

namespace grs {
namespace {

using workloads::trace::import_trace;
using workloads::trace::parse_trace;
using workloads::trace::reduce_trace;
using workloads::trace::Trace;
using workloads::trace::TraceError;

/// A trace where warp `w` streams pc 0x40 with a 1-line base advance and
/// revisits a 4-line window at pc 0x80 (stores), `iters` times over `warps`
/// warps of 32 full lanes.
std::string staged_trace(int iters, int warps) {
  std::string t = "pc,tid,addr,size\n";
  for (int it = 0; it < iters; ++it) {
    for (int w = 0; w < warps; ++w) {
      for (int lane = 0; lane < 32; ++lane) {
        const int tid = w * 32 + lane;
        // One 128B line per warp access, advancing one line per iteration.
        t += "0x40," + std::to_string(tid) + "," +
             std::to_string(0x100000 + (it * warps + w) * 128 + lane * 4) + ",4\n";
      }
      for (int lane = 0; lane < 32; ++lane) {
        const int tid = w * 32 + lane;
        // 4-line window revisited every 2 accesses (it % 2 alternates).
        t += "0x80," + std::to_string(tid) + "," +
             std::to_string(0x800000 + w * 8192 + (it % 2) * 512 + lane * 16) + ",4,w\n";
      }
    }
  }
  return t;
}

const workloads::trace::InstrStats* find_pc(const std::vector<workloads::trace::InstrStats>& v,
                                            std::uint64_t pc) {
  for (const auto& s : v) {
    if (s.pc == pc) return &s;
  }
  return nullptr;
}

// --- reader -----------------------------------------------------------------------

TEST(TraceReader, CsvGroupsLanesIntoWarpAccesses) {
  const Trace t = parse_trace(staged_trace(2, 3), "t.csv");
  // 2 iterations x 3 warps x 2 pcs = 12 warp accesses of 32 lanes each.
  ASSERT_EQ(t.accesses.size(), 12u);
  for (const auto& a : t.accesses) EXPECT_EQ(a.lanes.size(), 32u);
  EXPECT_EQ(t.records, 12u * 32u);
  EXPECT_EQ(t.max_tid, 3u * 32u - 1);
  EXPECT_FALSE(t.accesses[0].is_store);
  EXPECT_TRUE(t.accesses[1].is_store);
}

TEST(TraceReader, RepeatedLaneOpensANewDynamicInstance) {
  const std::string text =
      "0x10,0,0x1000,4\n"
      "0x10,1,0x1004,4\n"
      "0x10,0,0x2000,4\n";  // lane 0 again: second instance
  const Trace t = parse_trace(text, "t.csv");
  ASSERT_EQ(t.accesses.size(), 2u);
  EXPECT_EQ(t.accesses[0].lanes.size(), 2u);
  EXPECT_EQ(t.accesses[1].lanes.size(), 1u);
}

TEST(TraceReader, MemlogLinesAreOneWarpAccessEach) {
  const std::string text =
      "# comment\n"
      "0x40 3 LDG 0x10000 0x10080 0x10100\n"
      "0x48 3 STG.E 0x20000\n";
  const Trace t = parse_trace(text, "t.log");
  ASSERT_EQ(t.accesses.size(), 2u);
  EXPECT_EQ(t.accesses[0].warp_id, 3u);
  EXPECT_EQ(t.accesses[0].lanes.size(), 3u);
  EXPECT_FALSE(t.accesses[0].is_store);
  EXPECT_TRUE(t.accesses[1].is_store);
  EXPECT_EQ(t.max_tid, 3u * 32u + 2u);
}

TEST(TraceReader, ErrorsCarryFileAndLine) {
  try {
    (void)parse_trace("pc,tid,addr,size\n0x40,0,zzz,4\n", "bad.csv");
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("bad.csv:2:"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)parse_trace("0x40 7 LDG\n", "short.log"), TraceError);
  EXPECT_THROW((void)parse_trace("0x40 7 MUL 0x100\n", "op.log"), TraceError);
  EXPECT_THROW((void)parse_trace("# only comments\n", "empty.csv"), TraceError);
}

// --- reduction --------------------------------------------------------------------

TEST(TraceReduce, StreamingPcReducesToUnitAdvanceAllCold) {
  const Trace t = parse_trace(staged_trace(6, 4), "t.csv");
  const auto stats = reduce_trace(t);
  ASSERT_EQ(stats.size(), 2u);
  const auto* ld = find_pc(stats, 0x40);
  ASSERT_NE(ld, nullptr);
  EXPECT_FALSE(ld->is_store);
  EXPECT_EQ(ld->instances, 24u);
  EXPECT_EQ(ld->warps, 4u);
  // 32 lanes x 4B = 128B = exactly one line per access.
  ASSERT_EQ(ld->profile.coalesce.size(), 1u);
  EXPECT_EQ(ld->profile.coalesce[0].value, 1);
  EXPECT_EQ(ld->profile.coalesce[0].weight, 24u);
  // Base advances `warps` lines between a warp's consecutive accesses.
  ASSERT_EQ(ld->profile.stride.size(), 1u);
  EXPECT_EQ(ld->profile.stride[0].value, 4);
  // Fresh lines every access: all reuse mass is cold.
  ASSERT_EQ(ld->profile.reuse.size(), 1u);
  EXPECT_EQ(ld->profile.reuse[0].value, MemProfile::kColdReuse);
  EXPECT_EQ(ld->profile.footprint_lines, 24u);  // 6 iters x 4 warps distinct lines
}

TEST(TraceReduce, RevisitedWindowShowsReuseAndBoundedFootprint) {
  const Trace t = parse_trace(staged_trace(6, 4), "t.csv");
  const auto stats = reduce_trace(t);
  const auto* st = find_pc(stats, 0x80);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->is_store);
  // lane*16 over 32 lanes = 512B = 4 lines per access.
  ASSERT_EQ(st->profile.coalesce.size(), 1u);
  EXPECT_EQ(st->profile.coalesce[0].value, 4);
  // Each warp alternates between two 4-line windows: footprint 8 lines per
  // warp x 4 warps.
  EXPECT_EQ(st->profile.footprint_lines, 32u);
  // Every line repeats at distance 2 once both windows are warm.
  std::uint64_t cold = 0, reused = 0;
  for (const ProfileBucket& b : st->profile.reuse) {
    if (b.value == MemProfile::kColdReuse) {
      cold += b.weight;
    } else {
      EXPECT_EQ(b.value, 2);
      reused += b.weight;
    }
  }
  EXPECT_EQ(cold, 4u * 8u);           // 2 windows x 4 lines x 4 warps
  EXPECT_EQ(reused, 4u * 6u * 4u - cold);
  EXPECT_EQ(st->profile.check(), "");
}

// --- deterministic sampling -------------------------------------------------------

std::shared_ptr<const MemProfile> tiny_profile() {
  MemProfile p;
  p.coalesce = {{2, 3}, {4, 1}};
  p.stride = {{1, 9}, {16, 1}};
  p.reuse = {{MemProfile::kColdReuse, 1}, {2, 1}};
  p.footprint_lines = 64;
  EXPECT_EQ(p.check(), "");
  return std::make_shared<const MemProfile>(std::move(p));
}

Instruction profiled_load(std::shared_ptr<const MemProfile> p) {
  Instruction i;
  i.op = Op::kLdGlobal;
  i.dst = 0;
  i.region = 5;
  i.profile = std::move(p);
  return i;
}

/// Context of the `seq`-th execution of one static instruction (instr_uid
/// 7), with the warp's global mem_seq running ahead by `stretch` per step —
/// the situation of a loop body with `stretch` memory instructions.
MemAccessContext at_seq(std::uint64_t warp, std::uint64_t seq, std::uint64_t stretch = 1) {
  return MemAccessContext{warp, /*block_uid=*/0, /*mem_seq=*/seq * stretch,
                          /*instr_seq=*/seq, /*instr_uid=*/7};
}

TEST(ProfiledCoalescer, SamplingIsDeterministicAndRespectsHistograms) {
  Coalescer co(128);
  const Instruction ins = profiled_load(tiny_profile());
  std::vector<Addr> a, b;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    a.clear();
    co.expand(ins, at_seq(11, seq), a);
    b.clear();
    co.expand(ins, at_seq(11, seq), b);
    EXPECT_EQ(a, b) << "same (warp, seq) must draw the same addresses";
    // Transaction count comes from the coalesce histogram.
    EXPECT_TRUE(a.size() == 2 || a.size() == 4) << a.size();
    for (const Addr addr : a) {
      // Inside region 5's 64GB window and its 64-line footprint.
      EXPECT_EQ(addr >> 36, 5u);
      EXPECT_LT((addr & ((1ull << 36) - 1)) / 128, 64u);
    }
  }
}

TEST(ProfiledCoalescer, DistinctWarpsDrawDistinctStreams) {
  Coalescer co(128);
  const Instruction ins = profiled_load(tiny_profile());
  std::vector<Addr> w1, w2;
  for (std::uint64_t seq = 0; seq < 32; ++seq) {
    co.expand(ins, at_seq(1, seq), w1);
    co.expand(ins, at_seq(2, seq), w2);
  }
  EXPECT_NE(w1, w2);
}

std::shared_ptr<const MemProfile> unit_stride_profile() {
  MemProfile p;
  p.coalesce = {{1, 7}};
  p.stride = {{1, 7}};
  p.reuse = {{MemProfile::kColdReuse, 7}};
  p.footprint_lines = 1u << 20;
  return std::make_shared<const MemProfile>(std::move(p));
}

TEST(ProfiledCoalescer, SingleBucketHistogramsPinTheDraws) {
  Coalescer co(128);
  const Instruction ins = profiled_load(unit_stride_profile());
  std::vector<Addr> out;
  std::vector<Addr> seen;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    out.clear();
    co.expand(ins, at_seq(9, seq), out);
    ASSERT_EQ(out.size(), 1u);  // coalesce histogram forces one transaction
    seen.push_back(out[0]);
  }
  // All-cold unit stride: consecutive accesses advance one line, never repeat.
  for (std::size_t k = 1; k < seen.size(); ++k) {
    EXPECT_EQ(seen[k] - seen[k - 1], 128u);
  }
}

/// Regression: the walk is denominated in the instruction's own execution
/// index, not the warp's global memory-access counter. With three memory
/// instructions per loop body (mem_seq advancing 3 per iteration), a
/// unit-stride profile must still advance exactly one line per execution.
TEST(ProfiledCoalescer, WalkIsPerInstructionNotPerWarpAccessStream) {
  Coalescer co(128);
  const Instruction ins = profiled_load(unit_stride_profile());
  std::vector<Addr> alone, interleaved;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    co.expand(ins, at_seq(9, seq, /*stretch=*/1), alone);
    co.expand(ins, at_seq(9, seq, /*stretch=*/3), interleaved);
  }
  EXPECT_EQ(alone, interleaved) << "mem_seq spacing must not stretch the stride walk";
}

// --- .gkd profile sections --------------------------------------------------------

KernelInfo profiled_kernel() {
  std::vector<Segment> segments(2);
  segments[0].iterations = 6;
  Instruction seed;
  seed.op = Op::kAlu;
  seed.dst = 0;
  segments[0].instrs.push_back(seed);
  Instruction ld = profiled_load(tiny_profile());
  ld.dst = 1;
  ld.footprint_lines = 64;
  segments[0].instrs.push_back(ld);
  Instruction st;
  st.op = Op::kStGlobal;
  st.src0 = 1;
  st.region = 6;
  st.profile = tiny_profile();
  segments[0].instrs.push_back(st);
  segments[1].iterations = 1;
  Instruction exit;
  exit.op = Op::kExit;
  segments[1].instrs.push_back(exit);

  KernelInfo k;
  k.name = "profiled-test";
  k.suite = "tests";
  k.set = "trace";
  k.resources = KernelResources{64, 8, 0};
  k.grid_blocks = 28;
  k.program = Program(std::move(segments), 8);
  k.validate();
  return k;
}

TEST(GkdProfile, RoundTripIsByteIdentical) {
  const KernelInfo k = profiled_kernel();
  const std::string text = workloads::gkd::serialize(k);
  EXPECT_NE(text.find("profile {"), std::string::npos);
  EXPECT_NE(text.find("reuse cold:1 2:1"), std::string::npos) << text;
  const KernelInfo parsed = workloads::gkd::parse(text);
  EXPECT_EQ(workloads::gkd::serialize(parsed), text);
  // The parsed instruction carries the same histograms, not just bytes.
  const Instruction& ld = parsed.program.segments()[0].instrs[1];
  ASSERT_NE(ld.profile, nullptr);
  EXPECT_EQ(*ld.profile, *profiled_kernel().program.segments()[0].instrs[1].profile);
}

TEST(GkdProfile, LoaderRejectsMalformedProfiles) {
  auto doc = [](const std::string& body) {
    return "gkd 1\nkernel \"p\"\nthreads 32\nregs 4\ngrid 28\n\nsegment x1 {\n" + body +
           "\n  exit\n}\n";
  };
  auto expect_error = [&](const std::string& body, const std::string& needle) {
    try {
      (void)workloads::gkd::parse(doc(body));
      FAIL() << "expected ParseError for: " << body;
    } catch (const workloads::gkd::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  const std::string head = "  ld.global $r0, coalesced streaming region=1 lines=8 profile {\n";
  expect_error(head + "    coalesce 1:1\n    stride 1:1\n    reuse cold:1\n  }",
               "missing the 'footprint'");
  expect_error(head + "    coalesce 1:0\n    stride 1:1\n    reuse cold:1\n    footprint 8\n  }",
               "weight must be >= 1");
  expect_error(head +
                   "    coalesce 1:1\n    stride cold:1\n    reuse cold:1\n    footprint 8\n  }",
               "'cold' is only valid in the reuse histogram");
  expect_error(head +
                   "    coalesce 64:1\n    stride 1:1\n    reuse cold:1\n    footprint 8\n  }",
               "outside [1, 32]");
  expect_error(head + "    coalesce 1:1\n    stride 1:1\n    reuse cold:1\n    footprint 8\n"
                      "  exit",
               "unknown profile field 'exit'");
  expect_error("  ld.global $r0, coalesced streaming region=1 lines=8 profile\n  exit",
               "expected '{' after 'profile'");
  // A document that truly ends inside the block.
  try {
    (void)workloads::gkd::parse(
        "gkd 1\nkernel \"p\"\nthreads 32\nregs 4\ngrid 28\n\nsegment x1 {\n"
        "  ld.global $r0, coalesced streaming region=1 lines=8 profile {\n"
        "    coalesce 1:1\n");
    FAIL() << "expected ParseError for a truncated profile block";
  } catch (const workloads::gkd::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("unterminated profile block"), std::string::npos)
        << e.what();
  }
}

TEST(GkdProfile, NonCanonicalInputIsCanonicalizedOnLoad) {
  const std::string text =
      "gkd 1\nkernel \"p\"\nthreads 32\nregs 4\ngrid 28\n\nsegment x1 {\n"
      "  ld.global $r0, coalesced streaming region=1 lines=8 profile {\n"
      "    coalesce 4:1 1:2 4:1\n"  // unsorted + duplicate
      "    stride 1:1\n"
      "    reuse 2:1 cold:3\n"
      "    footprint 8\n"
      "  }\n"
      "  exit\n}\n";
  const KernelInfo k = workloads::gkd::parse(text);
  const Instruction& ld = k.program.segments()[0].instrs[0];
  ASSERT_NE(ld.profile, nullptr);
  ASSERT_EQ(ld.profile->coalesce.size(), 2u);
  EXPECT_EQ(ld.profile->coalesce[0].value, 1);
  EXPECT_EQ(ld.profile->coalesce[1].weight, 2u);  // merged 4:1 + 4:1
  EXPECT_EQ(ld.profile->reuse[0].value, MemProfile::kColdReuse);
  // And a second round-trip is stable.
  const std::string canonical = workloads::gkd::serialize(k);
  EXPECT_EQ(workloads::gkd::serialize(workloads::gkd::parse(canonical)), canonical);
}

// --- import ----------------------------------------------------------------------

TEST(TraceImport, EndToEndKernelValidatesAndCarriesProfiles) {
  const KernelInfo k = import_trace(staged_trace(8, 16), "staged.csv");
  k.validate();
  EXPECT_EQ(k.name, "trace-staged");
  EXPECT_EQ(k.suite, "trace");
  EXPECT_EQ(k.grid_blocks, 2u);  // 512 threads at 256/block
  std::size_t profiled = 0;
  for (const Segment& s : k.program.segments()) {
    for (const Instruction& i : s.instrs) {
      if (i.profile) {
        ++profiled;
        EXPECT_TRUE(is_global_mem(i.op));
        EXPECT_EQ(i.profile->check(), "");
      }
    }
  }
  EXPECT_EQ(profiled, 2u);  // one per traced pc
  // Round-trips byte-identically like any first-class workload.
  const std::string text = workloads::gkd::serialize(k);
  EXPECT_EQ(workloads::gkd::serialize(workloads::gkd::parse(text)), text);
}

// --- lint validator ---------------------------------------------------------------

TEST(Validate, CleanAndPositionedDiagnostics) {
  const GpuConfig cfg;
  const std::string good = workloads::gkd::serialize(profiled_kernel());
  EXPECT_TRUE(workloads::lint_gkd(good, "good.gkd", cfg).empty());

  const std::string overflow =
      "gkd 1\nkernel \"big\"\nthreads 1024\nregs 40\ngrid 28\n\nsegment x1 {\n  alu $r0\n"
      "  exit\n}\n";
  const auto diags = workloads::lint_gkd(overflow, "big.gkd", cfg);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find("big.gkd:4:"), std::string::npos) << diags[0];
  EXPECT_NE(diags[0].find("40960 registers"), std::string::npos) << diags[0];

  const auto parse_diags = workloads::lint_gkd("gkd 2\n", "v.gkd", cfg);
  ASSERT_EQ(parse_diags.size(), 1u);
  EXPECT_NE(parse_diags[0].find("v.gkd:1:"), std::string::npos) << parse_diags[0];
}

TEST(Validate, FlagsProfileHistogramInsanity) {
  const GpuConfig cfg;
  const std::string text =
      "gkd 1\nkernel \"p\"\nthreads 32\nregs 4\ngrid 28\nlanes 8\n\nsegment x1 {\n"
      "  ld.global $r0, coalesced streaming region=1 lines=8 profile {\n"
      "    coalesce 32:1\n"  // 32-line accesses with 8 active lanes
      "    stride 1:1\n"
      "    reuse cold:1\n"
      "    footprint 8\n"
      "  }\n"
      "  exit\n}\n";
  const auto diags = workloads::lint_gkd(text, "lanes.gkd", cfg);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find("lanes.gkd:9:"), std::string::npos) << diags[0];
  EXPECT_NE(diags[0].find("coalesce degree 32"), std::string::npos) << diags[0];
}

TEST(Validate, FlagsALoadThatCanNeverFitTheL1Mshr) {
  GpuConfig cfg;
  cfg.l1.mshr_entries = 1;
  const std::string text =
      "gkd 1\nkernel \"w\"\nthreads 32\nregs 4\ngrid 28\n\nsegment x1 {\n"
      "  ld.global $r0, coalesced streaming region=1 lines=8\n"
      "  st.global $r0, strided4 streaming region=2 lines=8\n"  // stores bypass the MSHR
      "  ld.global $r1, strided2 streaming region=3 lines=8\n"
      "  exit\n}\n";
  const auto diags = workloads::lint_gkd(text, "wide.gkd", cfg);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0], "wide.gkd:10: global load of 2 transactions can never fit l1.mshr_entries 1");

  cfg.l1.mshr_entries = 2;
  EXPECT_TRUE(workloads::lint_gkd(text, "wide.gkd", cfg).empty());
}

TEST(Validate, OneDiagnosticPerRefusedLimitOnItsHeaderLine) {
  // 2048 threads (64 warps) of 32 registers and 20,000 scratchpad bytes per
  // block break each of the SM's three limits once.
  const std::string text =
      "gkd 1\nkernel \"huge\"\nthreads 2048\nregs 32\nsmem 20000\ngrid 28\n\n"
      "segment x1 {\n  alu $r0\n  exit\n}\n";
  const auto diags = workloads::lint_gkd(text, "huge.gkd", GpuConfig{});
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0], "huge.gkd:3: block needs 64 warps but the SM hosts at most 48");
  EXPECT_EQ(diags[1], "huge.gkd:4: block needs 65536 registers but the SM has 32768");
  EXPECT_EQ(diags[2], "huge.gkd:5: block needs 20000 scratchpad bytes but the SM has 16384");
}

// --- corpus ----------------------------------------------------------------------

TEST(Corpus, EveryKernelLoadsLintsAndRoundTrips) {
  const std::string dir = std::string(GRS_SOURCE_DIR) + "/examples/kernels";
  const GpuConfig cfg;
  std::size_t count = 0, with_profiles = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".gkd") continue;
    ++count;
    SCOPED_TRACE(entry.path().string());
    const KernelInfo k = workloads::gkd::load_file(entry.path().string());
    k.validate();
    EXPECT_TRUE(workloads::lint_gkd_file(entry.path().string(), cfg).empty());
    const std::string text = workloads::gkd::serialize(k);
    EXPECT_EQ(workloads::gkd::serialize(workloads::gkd::parse(text)), text);
    for (const Segment& s : k.program.segments()) {
      for (const Instruction& i : s.instrs) {
        if (i.profile) ++with_profiles;
      }
    }
  }
  EXPECT_GE(count, 6u);          // staged_reduce + the 5 corpus kernels
  EXPECT_GE(with_profiles, 1u);  // the trace-imported kernel carries profiles
}

// --- cycle/event equivalence ------------------------------------------------------

/// Profile-backed kernels must keep the fuzz oracle valid: bit-identical
/// statistics across execution modes on every sharing line.
TEST(ProfiledEquivalence, CycleAndEventModesAreBitIdentical) {
  const KernelInfo kernels[] = {
      import_trace(staged_trace(8, 16), "staged.csv"),
      workloads::gen::generate(workloads::gen::profiled(), 1),
      workloads::gen::generate(workloads::gen::profiled(), 4),
  };
  for (const KernelInfo& k : kernels) {
    for (GpuConfig cfg :
         {configs::unshared(SchedulerKind::kLrr), configs::unshared(SchedulerKind::kGto),
          configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1)}) {
      cfg.max_cycles = 60000;
      cfg.exec_mode = ExecMode::kCycle;
      const SimResult cycle = simulate(cfg, k);
      cfg.exec_mode = ExecMode::kEvent;
      const SimResult event = simulate(cfg, k);
      EXPECT_TRUE(cycle.stats == event.stats)
          << k.name << " under " << cfg.line_label() << ": cycle IPC " << cycle.stats.ipc()
          << " vs event IPC " << event.stats.ipc();
    }
  }
}

}  // namespace
}  // namespace grs
