// Whole-GPU integration properties: determinism, conservation, the
// paper's structural equivalences (Set-3 untouched, 0%-sharing == baseline,
// effective blocks preserved), what simulate() refuses to run, and the
// committed cycle anchors.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "gpu/simulator.h"
#include "isa/builder.h"
#include "runner/kernel_source.h"
#include "workloads/suites.h"

namespace grs {
namespace {

KernelInfo shrink(KernelInfo k, std::uint32_t blocks) {
  k.grid_blocks = blocks;
  return k;
}

TEST(GpuIntegration, DeterministicAcrossRuns) {
  const KernelInfo k = shrink(workloads::hotspot(), 56);
  for (const GpuConfig& cfg :
       {configs::unshared(), configs::shared_owf_unroll_dyn(Resource::kRegisters)}) {
    const SimResult a = simulate(cfg, k);
    const SimResult b = simulate(cfg, k);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.sm_total.thread_instructions, b.stats.sm_total.thread_instructions);
    EXPECT_EQ(a.stats.sm_total.stall_cycles, b.stats.sm_total.stall_cycles);
    EXPECT_EQ(a.stats.sm_total.idle_cycles, b.stats.sm_total.idle_cycles);
    EXPECT_EQ(a.stats.l2_misses, b.stats.l2_misses);
    EXPECT_EQ(a.stats.dram_requests, b.stats.dram_requests);
  }
}

TEST(GpuIntegration, InstructionCountConservedAcrossConfigs) {
  // Every config must execute exactly grid * warps * program instructions.
  const KernelInfo k = shrink(workloads::conv2(), 42);
  const std::uint64_t expected =
      static_cast<std::uint64_t>(k.grid_blocks) * k.resources.warps_per_block(32) *
      k.program.dynamic_length();
  for (const GpuConfig& cfg :
       {configs::unshared(SchedulerKind::kLrr), configs::unshared(SchedulerKind::kGto),
        configs::unshared(SchedulerKind::kTwoLevel),
        configs::shared_owf(Resource::kScratchpad),
        configs::shared_noopt(Resource::kScratchpad)}) {
    EXPECT_EQ(simulate(cfg, k).stats.sm_total.warp_instructions, expected)
        << cfg.line_label();
  }
}

TEST(GpuIntegration, ZeroPercentSharingIsBitIdenticalToBaseline) {
  // t = 1.0 admits no extra blocks; the runtime must take the unshared path
  // (paper §VI-B.1: "all the thread blocks in the unsharing mode").
  for (const char* name : {"hotspot", "lavaMD", "sgemm"}) {
    const KernelInfo k = shrink(workloads::by_name(name), 56);
    const Resource res = k.set == "set2" ? Resource::kScratchpad : Resource::kRegisters;
    const SimResult base = simulate(configs::unshared(), k);
    const SimResult s = simulate(configs::shared_noopt(res, 1.0), k);
    EXPECT_EQ(base.stats.cycles, s.stats.cycles) << name;
    EXPECT_EQ(base.stats.sm_total.idle_cycles, s.stats.sm_total.idle_cycles) << name;
  }
}

TEST(GpuIntegration, Set3KernelsUntouchedBySharing) {
  // Paper Fig. 12: thread/block-limited kernels launch nothing extra, so the
  // sharing runtime (same scheduler) is bit-identical to the baseline.
  for (const auto& k0 : workloads::set3()) {
    const KernelInfo k = shrink(k0, 56);
    for (const Resource res : {Resource::kRegisters, Resource::kScratchpad}) {
      const SimResult base = simulate(configs::unshared(), k);
      const SimResult s = simulate(configs::shared_noopt(res, 0.1), k);
      EXPECT_EQ(base.stats.cycles, s.stats.cycles) << k.name;
      EXPECT_EQ(s.occupancy.shared_pairs, 0u) << k.name;
      EXPECT_EQ(s.stats.sm_total.lock_acquisitions, 0u) << k.name;
    }
  }
}

TEST(GpuIntegration, SharingLaunchesThePaperBlockCounts) {
  // Fig. 8(a)/(b) headline residency at 90% sharing.
  struct Case {
    const char* name;
    Resource res;
    std::uint32_t blocks;
  };
  for (const Case c : {Case{"hotspot", Resource::kRegisters, 6},
                       Case{"LIB", Resource::kRegisters, 8},
                       Case{"stencil", Resource::kRegisters, 3},
                       Case{"lavaMD", Resource::kScratchpad, 4},
                       Case{"NW1", Resource::kScratchpad, 8}}) {
    // Grid large enough to fill every SM to the plan (8 blocks x 14 SMs).
    const KernelInfo k = shrink(workloads::by_name(c.name), 112);
    GpuConfig cfg = configs::shared_noopt(c.res, 0.1);
    const SimResult r = simulate(cfg, k);
    EXPECT_EQ(r.occupancy.total_blocks, c.blocks) << c.name;
    EXPECT_EQ(r.stats.sm_total.max_resident_blocks, c.blocks) << c.name;
  }
}

TEST(GpuIntegration, UnrollPassChangesNothingButRegisterNumbers) {
  // Same dynamic instruction count, same block counts; cycles may differ.
  const KernelInfo k = shrink(workloads::sgemm(), 70);
  const SimResult plain = simulate(configs::shared_noopt(Resource::kRegisters), k);
  const SimResult unrolled = simulate(configs::shared_unroll(Resource::kRegisters), k);
  EXPECT_EQ(plain.stats.sm_total.warp_instructions,
            unrolled.stats.sm_total.warp_instructions);
  EXPECT_EQ(plain.occupancy.total_blocks, unrolled.occupancy.total_blocks);
}

TEST(GpuIntegration, DynThrottleOnlyActsOnSharedNonOwners) {
  // Without sharing pairs there are no non-owner warps: Dyn is a no-op.
  const KernelInfo k = shrink(workloads::bfs(), 42);
  const SimResult s = simulate(configs::shared_unroll_dyn(Resource::kRegisters), k);
  EXPECT_EQ(s.stats.sm_total.dyn_throttled_issues, 0u);
}

TEST(GpuIntegration, MaxCyclesCapStopsRunawaySimulations) {
  KernelInfo k = shrink(workloads::hotspot(), 56);
  GpuConfig cfg = configs::unshared();
  cfg.max_cycles = 100;
  const SimResult r = simulate(cfg, k);
  EXPECT_EQ(r.stats.cycles, 100u);
  EXPECT_LT(r.stats.sm_total.blocks_finished, k.grid_blocks);
}

TEST(GpuIntegration, RefusesALoadWiderThanTheL1Mshr) {
  // MUM's widest load needs 2 MSHR entries; a 1-entry L1 could never issue
  // it. The finite cap only bounds the run if the refusal is missing.
  const KernelInfo k = shrink(workloads::mum(), 28);
  for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
    GpuConfig cfg = configs::unshared();
    cfg.l1.mshr_entries = 1;
    cfg.max_cycles = 200000;
    cfg.exec_mode = mode;
    EXPECT_DEATH((void)simulate(cfg, k),
                 "kernel 'MUM': a global load of 2 transactions can never fit "
                 "l1.mshr_entries 1")
        << to_string(mode);
  }
}

TEST(GpuIntegration, RefusalsNameEachLimitAndLoadAndSimulateAbortsOnTheFirst) {
  // 64 warps, 65,536 registers and 20,000 scratchpad bytes per block, and a
  // 2-transaction load at program-order index 1 under a 1-entry L1 MSHR.
  KernelInfo k;
  k.name = "big";
  k.resources = KernelResources{2048, 32, 20000};
  k.grid_blocks = 28;
  ProgramBuilder b(32);
  b.alu(0).ld_global(1, MemPattern::kStrided2, Locality::kStreaming, 1, 64);
  k.program = b.build();
  GpuConfig cfg = configs::unshared();
  cfg.l1.mshr_entries = 1;
  const std::vector<Refusal> refused = refusals(cfg, k);
  ASSERT_EQ(refused.size(), 4u);
  const Resource limits[] = {Resource::kThreads, Resource::kRegisters, Resource::kScratchpad};
  const char* reasons[] = {"block needs 64 warps but the SM hosts at most 48",
                           "block needs 65536 registers but the SM has 32768",
                           "block needs 20000 scratchpad bytes but the SM has 16384"};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(refused[i].limit, limits[i]);
    EXPECT_FALSE(refused[i].instruction.has_value());
    EXPECT_EQ(refused[i].reason, reasons[i]);
  }
  EXPECT_FALSE(refused[3].limit.has_value());
  EXPECT_EQ(refused[3].instruction, 1u);
  EXPECT_EQ(refused[3].reason, "global load of 2 transactions can never fit l1.mshr_entries 1");
  EXPECT_DEATH((void)simulate(cfg, k),
               "kernel 'big': a block needs 64 warps but the SM hosts at most 48");

  GpuConfig no_slots = configs::unshared();
  no_slots.max_blocks_per_sm = 0;
  const std::vector<Refusal> none = refusals(no_slots, workloads::hotspot());
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].limit, Resource::kBlocks);
  EXPECT_DEATH((void)simulate(no_slots, workloads::hotspot()),
               "kernel 'hotspot': a block needs 1 block slot but the SM has 0");
}

TEST(GpuIntegration, PaperMachineRefusesNoBuiltInOrCorpusKernel) {
  const GpuConfig cfg;
  for (const std::string& name : workloads::all_names())
    EXPECT_TRUE(refusals(cfg, workloads::by_name(name)).empty()) << name;
  std::size_t corpus = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(GRS_SOURCE_DIR "/examples/kernels")) {
    if (entry.path().extension() != ".gkd") continue;
    ++corpus;
    EXPECT_TRUE(refusals(cfg, runner::resolve_kernel(entry.path().string())).empty())
        << entry.path();
  }
  EXPECT_GE(corpus, 6u);
}

TEST(GpuIntegration, DeadlockAbortsAtTheSameCycleInBothModes) {
  // No LSU issue port, a config validate() accepts: once the ALU chains have
  // drained, no load can ever issue and no event is pending. Both modes stop
  // at the same cycle; under a max_cycles cap both run to the cap instead,
  // with equal stats.
  KernelInfo k;
  k.name = "lsu_starved";
  k.resources = KernelResources{256, 4, 0};
  k.grid_blocks = 28;
  ProgramBuilder b(4);
  b.alu_chain(8, {0, 1, 2}).ld_global(3, MemPattern::kCoalesced, Locality::kStreaming, 1, 64);
  k.program = b.build();
  GpuConfig cfg = configs::unshared();
  cfg.lsu_issue_per_cycle = 0;
  std::vector<GpuStats> capped;
  for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
    cfg.exec_mode = mode;
    cfg.max_cycles = 0;
    EXPECT_DEATH((void)simulate(cfg, k), "deadlock at cycle 70") << to_string(mode);
    cfg.max_cycles = 2000;
    capped.push_back(simulate(cfg, k).stats);
    EXPECT_EQ(capped.back().cycles, 2000u) << to_string(mode);
    EXPECT_EQ(capped.back().sm_total.blocks_finished, 0u) << to_string(mode);
    EXPECT_EQ(capped.back().sm_total.stall_cycles, 54208u) << to_string(mode);
    EXPECT_EQ(capped.back().sm_total.blocked_lsu_port, 434448u) << to_string(mode);
  }
  EXPECT_TRUE(capped[0] == capped[1]);

  // With Dyn on, both modes ask at monitoring boundaries, so they abort at
  // the first boundary after the deadlock. This plan has no pairs, so no
  // warp ever meets a gate.
  GpuConfig dyn = configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1);
  dyn.lsu_issue_per_cycle = 0;
  std::vector<GpuStats> dyn_capped;
  for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
    dyn.exec_mode = mode;
    dyn.max_cycles = 0;
    EXPECT_DEATH((void)simulate(dyn, k), "deadlock at cycle 1000") << to_string(mode);
    dyn.max_cycles = 2000;
    dyn_capped.push_back(simulate(dyn, k).stats);
    EXPECT_EQ(dyn_capped.back().cycles, 2000u) << to_string(mode);
    EXPECT_EQ(dyn_capped.back().sm_total.blocks_finished, 0u) << to_string(mode);
  }
  EXPECT_TRUE(dyn_capped[0] == dyn_capped[1]);

  // A plan with pairs: non-owner warps stand at a Dyn gate every cycle, but
  // the global access behind each gate needs the LSU port, so no gate
  // reopening can let one issue. Both modes still abort at the first
  // boundary after the deadlock.
  const KernelInfo paired = workloads::hotspot();
  std::vector<GpuStats> gated_capped;
  for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
    dyn.exec_mode = mode;
    dyn.max_cycles = 0;
    EXPECT_DEATH((void)simulate(dyn, paired), "deadlock at cycle 1000") << to_string(mode);
    dyn.max_cycles = 5000;
    gated_capped.push_back(simulate(dyn, paired).stats);
    EXPECT_EQ(gated_capped.back().cycles, 5000u) << to_string(mode);
    EXPECT_EQ(gated_capped.back().sm_total.blocks_finished, 0u) << to_string(mode);
    EXPECT_EQ(gated_capped.back().sm_total.dyn_throttled_issues, 120000u) << to_string(mode);
  }
  EXPECT_TRUE(gated_capped[0] == gated_capped[1]);
}

TEST(GpuIntegration, SchedulerCycleAccountingIsExhaustive) {
  // issued + stall + idle must equal schedulers * SMs * cycles.
  const KernelInfo k = shrink(workloads::srad2(), 42);
  for (const GpuConfig& cfg :
       {configs::unshared(), configs::shared_owf(Resource::kScratchpad)}) {
    const SimResult r = simulate(cfg, k);
    EXPECT_EQ(r.stats.sm_total.scheduler_cycles(),
              static_cast<std::uint64_t>(r.stats.cycles) * cfg.num_sms * cfg.num_schedulers)
        << cfg.line_label();
  }
}

TEST(GpuIntegration, SharingReducesIdleCycles) {
  // The paper's Fig. 9(c)/(d) headline: extra resident blocks cut idle cycles.
  const KernelInfo k = workloads::hotspot();
  const SimResult base = simulate(configs::unshared(), k);
  const SimResult s = simulate(configs::shared_owf_unroll_dyn(Resource::kRegisters), k);
  EXPECT_LT(s.stats.sm_total.idle_cycles, base.stats.sm_total.idle_cycles);
}

TEST(GpuIntegration, OwnershipTransfersHappenOncePerPairGeneration) {
  const KernelInfo k = shrink(workloads::lavamd(), 112);
  const SimResult s = simulate(configs::shared_owf(Resource::kScratchpad), k);
  // 2 pairs/SM x 14 SMs = 28 pairs; each block generation past the first
  // transfers once. Transfers must be positive and bounded by grid size.
  EXPECT_GT(s.stats.sm_total.ownership_transfers, 0u);
  EXPECT_LT(s.stats.sm_total.ownership_transfers, k.grid_blocks);
}

TEST(GpuIntegration, L2StatisticsAreConsistent) {
  const KernelInfo k = shrink(workloads::stencil(), 28);
  const SimResult r = simulate(configs::unshared(), k);
  EXPECT_LE(r.stats.l2_misses, r.stats.l2_accesses);
  EXPECT_LE(r.stats.dram_row_hits, r.stats.dram_requests);
  // Every counted L2 miss reaches DRAM; heavy streaming can additionally
  // bypass a full L2 MSHR straight to DRAM (those are not counted as misses),
  // so DRAM requests bound the misses from above.
  EXPECT_GE(r.stats.dram_requests, r.stats.l2_misses);
  // L2 sees only L1 misses.
  EXPECT_LE(r.stats.l2_accesses, r.stats.sm_total.l1_misses);
}

TEST(GpuIntegration, SmallerL1RaisesMissRate) {
  const KernelInfo k = shrink(workloads::mriq(), 70);
  GpuConfig big = configs::unshared();
  GpuConfig small = configs::unshared();
  small.l1.size_bytes = 4 * 1024;
  EXPECT_GT(simulate(small, k).stats.l1_miss_rate(),
            simulate(big, k).stats.l1_miss_rate());
}

TEST(GpuIntegration, MoreSmsFinishFaster) {
  // Compute-bound kernel: doubling the SMs must cut the makespan (memory-
  // saturated kernels can invert this through shared L2/DRAM queueing).
  const KernelInfo k = shrink(workloads::mriq(), 140);
  GpuConfig few = configs::unshared();
  few.num_sms = 7;
  GpuConfig many = configs::unshared();
  many.num_sms = 14;
  EXPECT_LT(simulate(many, k).stats.cycles, simulate(few, k).stats.cycles);
}

/// The `cycles` value recorded for `point` in a baseline JSON document
/// (0, with a failure, when the point is missing).
std::uint64_t baseline_cycles(const std::string& json, const std::string& point) {
  const std::size_t at = json.find("\"name\":\"" + point + "\"");
  const std::size_t key = json.find("\"cycles\":", at);
  EXPECT_TRUE(at != std::string::npos && key != std::string::npos)
      << "baseline has no cycles for " << point;
  if (at == std::string::npos || key == std::string::npos) return 0;
  return std::stoull(json.substr(key + 9));
}

TEST(GpuIntegration, CyclesMatchCommittedBaseline) {
  // bench/baselines/linux-gcc-release.json is the single source of three
  // summed-cycle anchors (perfbench checks the fig8 one too). Simulation is
  // bit-deterministic, so any drift is a behaviour change: update the
  // baseline's cycles in the same commit.
  std::ifstream f(GRS_SOURCE_DIR "/bench/baselines/linux-gcc-release.json");
  ASSERT_TRUE(f.good());
  std::ostringstream json;
  json << f.rdbuf();

  const auto expect_anchor = [&json](const char* point, const std::vector<GpuConfig>& cfgs,
                                     const KernelInfo& k) {
    std::uint64_t cycles = 0;
    for (const GpuConfig& cfg : cfgs) cycles += simulate(cfg, k).stats.cycles;
    EXPECT_EQ(cycles, baseline_cycles(json.str(), point))
        << point << ": simulated " << cycles << " cycles";
  };
  const std::vector<GpuConfig> fig8_set1 = {
      configs::unshared(), configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1)};
  GpuConfig cycle = configs::unshared();
  cycle.exec_mode = ExecMode::kCycle;
  GpuConfig event = configs::unshared();
  event.exec_mode = ExecMode::kEvent;

  expect_anchor("fig8:hotspot", fig8_set1, workloads::hotspot());
  expect_anchor("study:slice", fig8_set1, runner::resolve_kernel("gen:study-r44-sm0-m2-l32:1"));
  expect_anchor("corpus:staged_reduce", {cycle, event},
                runner::resolve_kernel(GRS_SOURCE_DIR "/examples/kernels/staged_reduce.gkd"));
}

}  // namespace
}  // namespace grs
