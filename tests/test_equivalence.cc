// Cross-mode equivalence: exec_mode = kEvent must produce statistics
// bit-identical to the naive exec_mode = kCycle loop — same cycles, same
// per-class scheduler accounting, same per-warp blocked counters, same
// L1/L2/DRAM traffic — across kernels, schedulers, and sharing runtimes.
// This is the contract that lets every bench default to the fast loop.
// Every simulated line also keeps the conservation laws (check_conservation
// in gpu/simulator.h).
#include <gtest/gtest.h>

#include <string>

#include "cache/key.h"
#include "common/config.h"
#include "common/hash.h"
#include "gpu/result_codec.h"
#include "gpu/simulator.h"
#include "workloads/gen/generator.h"
#include "workloads/gen/profile.h"
#include "workloads/suites.h"

namespace grs {
namespace {

KernelInfo shrink(KernelInfo k, std::uint32_t blocks) {
  k.grid_blocks = blocks;
  return k;
}

/// Run `kernel` under both execution modes and assert identical stats.
void expect_equivalent(GpuConfig cfg, const KernelInfo& kernel,
                       const std::string& what) {
  cfg.exec_mode = ExecMode::kCycle;
  const SimResult naive = simulate(cfg, kernel);
  cfg.exec_mode = ExecMode::kEvent;
  const SimResult event = simulate(cfg, kernel);

  EXPECT_TRUE(naive.stats == event.stats) << what;
  EXPECT_EQ(check_conservation(cfg, kernel, naive.stats), "") << what << " (cycle)";
  EXPECT_EQ(check_conservation(cfg, kernel, event.stats), "") << what << " (event)";
  // On mismatch, name the first diverging headline counters for diagnosis.
  EXPECT_EQ(naive.stats.cycles, event.stats.cycles) << what;
  EXPECT_EQ(naive.stats.sm_total.issued_cycles, event.stats.sm_total.issued_cycles)
      << what;
  EXPECT_EQ(naive.stats.sm_total.stall_cycles, event.stats.sm_total.stall_cycles)
      << what;
  EXPECT_EQ(naive.stats.sm_total.idle_cycles, event.stats.sm_total.idle_cycles) << what;
  EXPECT_EQ(naive.stats.sm_total.lock_wait_cycles, event.stats.sm_total.lock_wait_cycles)
      << what;
  EXPECT_EQ(naive.stats.sm_total.dyn_throttled_issues,
            event.stats.sm_total.dyn_throttled_issues)
      << what;
  EXPECT_EQ(naive.stats.l2_accesses, event.stats.l2_accesses) << what;
  EXPECT_EQ(naive.stats.dram_requests, event.stats.dram_requests) << what;
}

GpuConfig sharing_line(SchedulerKind sched, int line) {
  GpuConfig c;
  switch (line) {
    case 0: c = configs::unshared(); break;
    case 1: c = configs::shared_noopt(Resource::kRegisters, 0.1); break;
    case 2: c = configs::shared_noopt(Resource::kScratchpad, 0.1); break;
    case 3: c = configs::shared_unroll_dyn(Resource::kRegisters, 0.1); break;
  }
  c.scheduler = sched;
  return c;
}

constexpr const char* kLineNames[] = {"unshared", "shared-reg", "shared-smem",
                                      "shared-reg-unroll-dyn"};

// The ISSUE grid: kernels x {LRR, GTO, two-level, OWF} x {no sharing,
// register sharing, scratchpad sharing, +dyn}. Kernels cover one per paper
// set (register-limited, scratchpad-limited, thread/block-limited) at a
// shrunken grid so one point simulates in milliseconds.
TEST(Equivalence, KernelsBySchedulersBySharing) {
  const KernelInfo kernels[] = {shrink(workloads::hotspot(), 8),
                                shrink(workloads::lavamd(), 8),
                                shrink(workloads::bfs(), 8)};
  const SchedulerKind scheds[] = {SchedulerKind::kLrr, SchedulerKind::kGto,
                                  SchedulerKind::kTwoLevel, SchedulerKind::kOwf};
  for (const KernelInfo& k : kernels) {
    for (const SchedulerKind sched : scheds) {
      for (int line = 0; line < 4; ++line) {
        const GpuConfig cfg = sharing_line(sched, line);
        expect_equivalent(cfg, k,
                          k.name + " / " + to_string(sched) + " / " + kLineNames[line]);
      }
    }
  }
}

// Pinned results per scheduler, for the simulator semantics and payload
// layout named below. The grid above gives no SM two blocks, so GTO and OWF
// agree there and no Dyn gate fires; at 28 blocks each SM holds two, pairs
// share, Dyn gates fire and ownership transfers, and the four schedulers
// differ. Each golden is the sha256 of the 12 encode_result payloads of one
// scheduler (kernels outer, sharing lines inner), in event mode (the suite
// above holds cycle mode to it). A change that moves any result must bump
// kSimSchemaVersion (or kResultCodecVersion, for the layout) and regenerate
// the goldens from this test's failure output.
constexpr int kGoldenSimSchemaVersion = 1;
constexpr int kGoldenResultCodecVersion = 1;
struct SchedulerGolden {
  SchedulerKind sched;
  const char* sha256;
};
constexpr SchedulerGolden kSchedulerGoldens[] = {
    {SchedulerKind::kLrr,
     "5a2987901ed3bf3944eba91ec3c01002fecbaa19a1e0f17c8913e352de6c4360"},
    {SchedulerKind::kGto,
     "7fb4d20d29f2cfe5fcdbfe5ab70a6af3358e9eb9fea7dee21a186c92cb8026ac"},
    {SchedulerKind::kTwoLevel,
     "1c1b6ffd63a6e974aa717e373cc532b33a63847704ad9dbe7837b53b5b2833ce"},
    {SchedulerKind::kOwf,
     "64073b531290ff0fbd26cc0985d544e42f4f38c3b08f33fa0c9d682fec797042"},
};

TEST(Equivalence, EachSchedulerMatchesItsGoldenAt28Blocks) {
  ASSERT_EQ(cache::kSimSchemaVersion, kGoldenSimSchemaVersion) << "regenerate the goldens";
  ASSERT_EQ(kResultCodecVersion, kGoldenResultCodecVersion) << "regenerate the goldens";
  const KernelInfo kernels[] = {shrink(workloads::hotspot(), 28),
                                shrink(workloads::lavamd(), 28),
                                shrink(workloads::bfs(), 28)};
  for (const SchedulerGolden& g : kSchedulerGoldens) {
    std::string payloads;
    SmStats total;
    for (const KernelInfo& k : kernels) {
      for (int line = 0; line < 4; ++line) {
        GpuConfig cfg = sharing_line(g.sched, line);
        cfg.exec_mode = ExecMode::kEvent;
        const SimResult r = simulate(cfg, k);
        EXPECT_EQ(check_conservation(cfg, k, r.stats), "") << k.name << " line " << line;
        payloads += encode_result(r);
        total.merge(r.stats.sm_total);
      }
    }
    EXPECT_EQ(sha256_hex(payloads), g.sha256) << to_string(g.sched);
    // What the grid is for: gates and transfers occur under every scheduler.
    EXPECT_GT(total.dyn_throttled_issues, 0u) << to_string(g.sched);
    EXPECT_GT(total.ownership_transfers, 0u) << to_string(g.sched);
  }
}

// The memory-bound slice of the tripwire above: generated memory_bound seeds
// 23-25 and b+tree at 56 blocks (kernels outer), each unshared and under
// Shared-OWF-Unroll-Dyn (configs inner): kernels whose L2 MSHRs fill, so
// their traffic counts change with any change to the memory system. One
// sha256 over the eight encode_result payloads, the same in both exec modes,
// for the versions above.
constexpr const char* kMemoryBoundGolden =
    "dce23390b942aee80a44f47715dfb7566e1de47dec9fd8339165ca016899e51c";

TEST(Equivalence, MemoryBoundSliceMatchesItsGoldenInBothModes) {
  ASSERT_EQ(cache::kSimSchemaVersion, kGoldenSimSchemaVersion) << "regenerate the golden";
  ASSERT_EQ(kResultCodecVersion, kGoldenResultCodecVersion) << "regenerate the golden";
  const workloads::gen::GenProfile profile = workloads::gen::memory_bound();
  const KernelInfo kernels[] = {workloads::gen::generate(profile, 23),
                                workloads::gen::generate(profile, 24),
                                workloads::gen::generate(profile, 25),
                                shrink(workloads::btree(), 56)};
  const GpuConfig lines[] = {configs::unshared(),
                             configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1)};
  for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
    std::string payloads;
    for (const KernelInfo& k : kernels) {
      for (GpuConfig cfg : lines) {
        cfg.exec_mode = mode;
        const SimResult r = simulate(cfg, k);
        EXPECT_EQ(check_conservation(cfg, k, r.stats), "") << k.name << " " << to_string(mode);
        payloads += encode_result(r);
      }
    }
    EXPECT_EQ(sha256_hex(payloads), kMemoryBoundGolden) << to_string(mode);
  }
}

// A Dyn-gated line whose L1 MSHR fills: register_limited seed 2 at 28 blocks
// under Shared-OWF-Unroll-Dyn with 32 L1 MSHR entries. Shared non-owner
// warps wait at the Dyn gate and at a full MSHR by turns, so a scan that
// skipped a Dyn-exposed warp at a full MSHR would move its gated and
// MSHR-blocked counts in both modes alike. The sha256 of its encode_result
// payload, the same in both exec modes, for the versions above.
constexpr const char* kDynMshrGolden =
    "8581cf27d206ff838ad1b56eebbacad092ea1d1e2aab3bef52c4060babe9ca2a";

TEST(Equivalence, DynGatedMshrBoundLineMatchesItsGoldenInBothModes) {
  ASSERT_EQ(cache::kSimSchemaVersion, kGoldenSimSchemaVersion) << "regenerate the golden";
  ASSERT_EQ(kResultCodecVersion, kGoldenResultCodecVersion) << "regenerate the golden";
  const KernelInfo k =
      shrink(workloads::gen::generate(workloads::gen::register_limited(), 2), 28);
  GpuConfig cfg = configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1);
  cfg.l1.mshr_entries = 32;
  for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
    cfg.exec_mode = mode;
    const SimResult r = simulate(cfg, k);
    EXPECT_EQ(check_conservation(cfg, k, r.stats), "") << to_string(mode);
    EXPECT_EQ(sha256_hex(encode_result(r)), kDynMshrGolden) << to_string(mode);
    // What the line is for: both waits occur, on the same warps.
    EXPECT_EQ(r.stats.cycles, 22943u) << to_string(mode);
    EXPECT_EQ(r.stats.sm_total.dyn_throttled_issues, 118031u) << to_string(mode);
    EXPECT_EQ(r.stats.sm_total.blocked_mshr, 53483u) << to_string(mode);
  }
}

// The check is not vacuous: a result off by one in any law is named, and
// a run the cap cut may leave blocks unfinished.
TEST(Conservation, BrokenLawsAreNamed) {
  const GpuConfig cfg = configs::unshared();
  const KernelInfo k = shrink(workloads::hotspot(), 8);
  const GpuStats good = simulate(cfg, k).stats;
  ASSERT_EQ(check_conservation(cfg, k, good), "");

  GpuStats extra_idle = good;
  ++extra_idle.sm_total.idle_cycles;
  EXPECT_NE(check_conservation(cfg, k, extra_idle).find("issued + stall + idle"),
            std::string::npos);
  GpuStats extra_issue = good;
  ++extra_issue.sm_total.warp_instructions;
  EXPECT_NE(check_conservation(cfg, k, extra_issue).find("issued cycles != warp instructions"),
            std::string::npos);
  GpuStats unfinished = good;
  --unfinished.sm_total.blocks_finished;
  EXPECT_NE(check_conservation(cfg, k, unfinished).find("blocks finished != grid blocks: 7 != 8"),
            std::string::npos);

  GpuConfig capped = cfg;
  capped.max_cycles = 100;
  const GpuStats cut = simulate(capped, k).stats;
  ASSERT_LT(cut.sm_total.blocks_finished, k.grid_blocks);
  EXPECT_EQ(check_conservation(capped, k, cut), "");
}

// Full-size memory-bound kernel: long idle windows, deep sleep/jump paths.
TEST(Equivalence, FullSizeMemoryBoundKernel) {
  expect_equivalent(configs::unshared(), workloads::btree(), "b+tree full grid");
}

// Full-size Dyn line: fractional gate probabilities pin SMs to single
// stepping and monitoring boundaries bound every idle window.
TEST(Equivalence, FullSizeDynThrottledKernel) {
  expect_equivalent(configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1),
                    shrink(workloads::btree(), 84), "b+tree shared-owf-unroll-dyn");
}

// The max_cycles cap must land on the same cycle in both modes, including
// when it strikes in the middle of an idle window or clock jump.
TEST(Equivalence, MaxCyclesCapMidWindow) {
  for (const Cycle cap : {100u, 1234u, 54002u}) {
    GpuConfig cfg = configs::unshared();
    cfg.max_cycles = cap;
    expect_equivalent(cfg, shrink(workloads::btree(), 56),
                      "b+tree capped at " + std::to_string(cap));
    GpuConfig dyn_cfg = configs::shared_unroll_dyn(Resource::kRegisters, 0.1);
    dyn_cfg.max_cycles = cap;
    expect_equivalent(dyn_cfg, shrink(workloads::btree(), 56),
                      "b+tree dyn capped at " + std::to_string(cap));
  }
}

}  // namespace
}  // namespace grs
