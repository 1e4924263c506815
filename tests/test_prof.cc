// Host-phase profiler contracts (src/prof, docs/perf-tracking.md):
//  * zero feedback — sim stats are bit-identical with profiling on, in both
//    exec modes, through the engine, and through the result cache;
//  * exactness — per-phase call counts and the warps_scanned and
//    warps_decided work counts match the modelled work exactly
//    (fingerprints_hashed is pinned in tests/test_cache.cc), and merge() is
//    additive;
//  * sampling — injected samples fold along the parent table into
//    grs-prof-v2 JSON and folded lines, byte for byte; a real run's samples
//    land only on that table's stacks, on worker threads too, and the phase
//    self times sum to the profiled wall clock;
//  * nesting — a phase opened outside its parent dies on its check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "gpu/result_codec.h"
#include "gpu/simulator.h"
#include "obs/obs.h"
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

/// simulate() under an observer whose only pillar is the profiler; returns
/// the profile, and the result in `*result` (may be null).
prof::HostProfiler profile_sim(const GpuConfig& cfg, const KernelInfo& kernel,
                               SimResult* result = nullptr) {
  obs::ObsOptions opts;
  opts.prof = true;
  obs::SimObserver observer(opts);
  const SimResult r = simulate(cfg, kernel, &observer);
  if (result != nullptr) *result = r;
  return *observer.profiler();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

TEST(ProfPhases, NamesAreStable) {
  // These spellings are schema: they appear in committed baselines and in
  // every saved profile/flamegraph. Renaming one is a format break.
  EXPECT_STREQ(to_string(prof::Phase::kSimulate), "simulate");
  EXPECT_STREQ(to_string(prof::Phase::kExecute), "execute_writeback");
  EXPECT_STREQ(to_string(prof::Phase::kSchedulerScan), "scheduler_scan");
  EXPECT_STREQ(to_string(prof::Phase::kIssue), "issue");
  EXPECT_STREQ(to_string(prof::Phase::kMemsys), "memsys_l2");
  EXPECT_STREQ(to_string(prof::Phase::kDram), "dram");
  EXPECT_STREQ(to_string(prof::Phase::kEventSleep), "event_sleep");
  EXPECT_STREQ(to_string(prof::Phase::kTimeline), "timeline_sample");
  EXPECT_STREQ(to_string(prof::Phase::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(to_string(prof::Phase::kCacheStore), "cache_store");
}

TEST(ProfScope, NullProfilerIsANoop) {
  prof::ScopedPhase outer(nullptr, prof::Phase::kSimulate);
  prof::ScopedPhase inner(nullptr, prof::Phase::kIssue);
  // Nothing to assert beyond "does not crash": the hook sites run this path
  // on every default (prof-off) simulation.
  SUCCEED();
}

TEST(ProfScope, PhaseOutsideItsParentDies) {
  // The hook sites nest statically; a scope opened anywhere else is a bug in
  // the instrumentation, caught at the scope that opens it.
  EXPECT_DEATH(
      {
        prof::HostProfiler p;
        prof::ScopedPhase issue(&p, prof::Phase::kIssue);
      },
      "outside its parent");
  EXPECT_DEATH(
      {
        prof::HostProfiler p;
        prof::ScopedPhase sim(&p, prof::Phase::kSimulate);
        prof::ScopedPhase dram(&p, prof::Phase::kDram);
      },
      "outside its parent");
}

// The next two tests inject their samples and open no root scope, so the
// live sampler cannot add to them: every count in them is exact.
TEST(ProfSamples, InjectedSamplesFoldAlongTheParentTable) {
  prof::HostProfiler p;
  p.add_sample(prof::Phase::kSimulate);
  for (int i = 0; i < 3; ++i) p.add_sample(prof::Phase::kSchedulerScan);
  p.add_sample(prof::Phase::kIssue);
  p.add_sample(prof::Phase::kIssue);
  p.add_sample(prof::Phase::kDram);
  p.add_sample(prof::Phase::kCacheLookup);
  p.add_warps_scanned(3);

  EXPECT_EQ(p.samples(), 8u);
  EXPECT_EQ(p.samples(prof::Phase::kSchedulerScan), 3u);
  EXPECT_EQ(p.calls(prof::Phase::kSchedulerScan), 0u);
  // No root scope ran, so no wall clock was covered and no time is estimated.
  EXPECT_EQ(p.wall_seconds(), 0.0);
  EXPECT_EQ(p.self_seconds(prof::Phase::kSchedulerScan), 0.0);

  // Folded output: each sampled phase once, in report order, on its
  // root-first stack from the parent table, valued in samples.
  EXPECT_EQ(p.folded(),
            "simulate 1\n"
            "simulate;scheduler_scan 3\n"
            "simulate;scheduler_scan;issue 2\n"
            "simulate;scheduler_scan;issue;memsys_l2;dram 1\n"
            "cache_lookup 1\n");

  // grs-prof-v2, byte for byte: every phase in report order.
  EXPECT_EQ(p.json(),
            "{\"schema\":\"grs-prof-v2\",\"wall_seconds\":0.000000000,\"samples\":8,"
            "\"phases\":["
            "{\"name\":\"simulate\",\"calls\":0,\"samples\":1,\"self_s\":0.000000000},"
            "{\"name\":\"execute_writeback\",\"calls\":0,\"samples\":0,\"self_s\":0.000000000},"
            "{\"name\":\"scheduler_scan\",\"calls\":0,\"samples\":3,\"self_s\":0.000000000},"
            "{\"name\":\"issue\",\"calls\":0,\"samples\":2,\"self_s\":0.000000000},"
            "{\"name\":\"memsys_l2\",\"calls\":0,\"samples\":0,\"self_s\":0.000000000},"
            "{\"name\":\"dram\",\"calls\":0,\"samples\":1,\"self_s\":0.000000000},"
            "{\"name\":\"event_sleep\",\"calls\":0,\"samples\":0,\"self_s\":0.000000000},"
            "{\"name\":\"timeline_sample\",\"calls\":0,\"samples\":0,\"self_s\":0.000000000},"
            "{\"name\":\"cache_lookup\",\"calls\":0,\"samples\":1,\"self_s\":0.000000000},"
            "{\"name\":\"cache_store\",\"calls\":0,\"samples\":0,\"self_s\":0.000000000}],"
            "\"counts\":{\"warps_scanned\":3,\"warps_decided\":0,"
            "\"fingerprints_hashed\":0}}\n");
}

TEST(ProfSamples, MergeIsAdditive) {
  prof::HostProfiler a, b;
  a.add_sample(prof::Phase::kSimulate);
  a.add_sample(prof::Phase::kIssue);
  b.add_sample(prof::Phase::kSimulate);
  b.add_sample(prof::Phase::kSimulate);
  b.add_sample(prof::Phase::kCacheStore);

  a.add_warps_scanned(7);
  b.add_warps_scanned(5);
  a.add_warps_decided(3);
  b.add_warps_decided(2);
  a.add_fingerprints_hashed(37);
  b.add_fingerprints_hashed(4);

  a.merge(b);
  EXPECT_EQ(a.samples(), 5u);
  EXPECT_EQ(a.samples(prof::Phase::kSimulate), 3u);
  EXPECT_EQ(a.warps_scanned(), 12u);
  EXPECT_EQ(a.warps_decided(), 5u);
  EXPECT_EQ(a.fingerprints_hashed(), 41u);
  EXPECT_EQ(a.folded(),
            "simulate 3\n"
            "simulate;scheduler_scan;issue 1\n"
            "cache_store 1\n");
}

TEST(ProfSamples, Fig8HotspotFoldsToTheParentTableTree) {
  // A real fig8 point: hotspot, full grid, Shared-OWF-Unroll-Dyn at t = 0.1.
  const prof::HostProfiler p = profile_sim(
      configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1), workloads::hotspot());
  // Every stack the simulator can sample, root first; the values are samples.
  const std::vector<std::string> tree = {
      "simulate",
      "simulate;execute_writeback",
      "simulate;scheduler_scan",
      "simulate;scheduler_scan;issue",
      "simulate;scheduler_scan;issue;memsys_l2",
      "simulate;scheduler_scan;issue;memsys_l2;dram",
      "simulate;event_sleep",
  };
  std::istringstream lines(p.folded());
  std::string line;
  std::size_t next = 0;  // lines come in tree order, each stack at most once
  std::uint64_t total = 0;
  std::vector<std::string> seen;
  while (std::getline(lines, line)) {
    const std::size_t space = line.find_last_of(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string stack = line.substr(0, space);
    while (next < tree.size() && tree[next] != stack) ++next;
    ASSERT_LT(next, tree.size()) << "not a parent-table stack, or out of order: " << line;
    ++next;
    seen.push_back(stack);
    const std::uint64_t value = std::stoull(line.substr(space + 1));
    EXPECT_GT(value, 0u) << line;
    total += value;
  }
  EXPECT_EQ(total, p.samples());
  // The scan is about half of any fig8 point; it cannot go unsampled.
  EXPECT_NE(std::find(seen.begin(), seen.end(), "simulate;scheduler_scan"), seen.end());
}

TEST(ProfZeroFeedback, StatsBitIdenticalBothExecModes) {
  const KernelInfo kernel = shrink(workloads::hotspot(), 4);
  for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
    GpuConfig cfg = configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1);
    cfg.exec_mode = mode;
    const SimResult plain = simulate(cfg, kernel);
    SimResult profiled;
    const prof::HostProfiler p = profile_sim(cfg, kernel, &profiled);
    EXPECT_EQ(encode_result(plain), encode_result(profiled))
        << "profiling changed sim results in mode " << static_cast<int>(mode);
    EXPECT_GT(p.calls(prof::Phase::kSimulate), 0u);
    EXPECT_GT(p.calls(prof::Phase::kSchedulerScan), 0u);
    EXPECT_GT(p.calls(prof::Phase::kIssue), 0u);
  }
}

TEST(ProfZeroFeedback, PhaseCallsCountModelledWork) {
  // Call counts and work counts are host-independent: each hook runs once
  // per unit of modelled work, so they are gated exactly, like cycles. A
  // dropped or doubled hook, a warp scanned while it should be parked, or a
  // decided warp re-decided before it issues, breaks an identity or a golden.
  const KernelInfo kernel = shrink(workloads::hotspot(), 4);
  struct Golden {
    ExecMode mode;
    std::uint64_t scans;        ///< scheduler_scan and execute_writeback calls
    std::uint64_t event_sleep;  ///< event-mode sleep bookkeeping calls: one per window opened
  };
  const Golden goldens[] = {{ExecMode::kCycle, 181804, 0}, {ExecMode::kEvent, 11024, 2640}};
  for (const Golden& g : goldens) {
    GpuConfig cfg = configs::unshared();
    cfg.exec_mode = g.mode;
    SimResult r;
    const prof::HostProfiler p = profile_sim(cfg, kernel, &r);
    const std::string label = to_string(g.mode);

    EXPECT_EQ(p.calls(prof::Phase::kIssue), r.stats.sm_total.warp_instructions) << label;
    EXPECT_EQ(p.calls(prof::Phase::kDram), r.stats.dram_requests) << label;
    EXPECT_EQ(p.calls(prof::Phase::kExecute), p.calls(prof::Phase::kSchedulerScan)) << label;
    if (g.mode == ExecMode::kCycle) {
      EXPECT_EQ(r.stats.cycles, 12986u);
      EXPECT_EQ(p.calls(prof::Phase::kSchedulerScan), r.stats.cycles * cfg.num_sms);
    }

    EXPECT_EQ(p.calls(prof::Phase::kSimulate), 1u) << label;
    EXPECT_EQ(p.calls(prof::Phase::kExecute), g.scans) << label;
    EXPECT_EQ(p.calls(prof::Phase::kSchedulerScan), g.scans) << label;
    EXPECT_EQ(p.calls(prof::Phase::kIssue), 13056u) << label;
    EXPECT_EQ(p.calls(prof::Phase::kMemsys), 1120u) << label;
    EXPECT_EQ(p.calls(prof::Phase::kDram), 1030u) << label;
    EXPECT_EQ(p.calls(prof::Phase::kEventSleep), g.event_sleep) << label;
    EXPECT_EQ(p.calls(prof::Phase::kTimeline), 0u) << label;
    EXPECT_EQ(p.calls(prof::Phase::kCacheLookup), 0u) << label;
    EXPECT_EQ(p.calls(prof::Phase::kCacheStore), 0u) << label;
    // Parked warps leave the scan until their wake event, so both modes
    // visit the same warps: cycle mode's extra steps find every warp parked.
    EXPECT_EQ(p.warps_scanned(), 38792u) << label;
    // A warp runs the instruction-level checks until it passes them, then
    // only the per-cycle ones until it issues.
    EXPECT_EQ(p.warps_decided(), 25864u) << label;
  }

  struct LineGolden {
    const char* name;
    KernelInfo kernel;
    GpuConfig cfg;
    std::uint64_t warps_scanned;
    std::uint64_t warps_decided;
  };
  const std::string dir = std::string(GRS_SOURCE_DIR) + "/examples/kernels/";
  const LineGolden lines[] = {
      // Sharing lines: lock-waiting warps park too, and wake on every
      // lock-state change of their pair, which also makes the pair's decided
      // warps decide again.
      {"registers", shrink(workloads::hotspot(), 8),
       configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1), 71304, 52264},
      {"scratchpad", shrink(workloads::lavamd(), 8),
       configs::shared_owf(Resource::kScratchpad, 0.1), 32032, 27512},
      // MSHR-bound lines, unshared: a global load at a full L1 MSHR parks
      // until a drain frees its entries or an LSU issue, so cycle mode's
      // extra steps find it parked, as event mode's skipped cycles would.
      {"l2_thrash", shrink(workloads::gkd::load_file(dir + "l2_thrash.gkd"), 8),
       configs::unshared(), 19950, 12272},
      {"memory_bound:23",
       shrink(workloads::gen::generate(workloads::gen::memory_bound(), 23), 28),
       configs::unshared(), 29149, 15791},
  };
  for (const LineGolden& g : lines) {
    for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
      GpuConfig cfg = g.cfg;
      cfg.exec_mode = mode;
      const prof::HostProfiler p = profile_sim(cfg, g.kernel);
      EXPECT_EQ(p.warps_scanned(), g.warps_scanned) << g.name << " " << to_string(mode);
      EXPECT_EQ(p.warps_decided(), g.warps_decided) << g.name << " " << to_string(mode);
    }
  }
}

TEST(ProfZeroFeedback, PhaseTimesSumToWall) {
  // Long enough (tens of milliseconds) for the 1 ms sampler to fire.
  const KernelInfo kernel = shrink(workloads::hotspot(), 28);
  const prof::HostProfiler p = profile_sim(configs::unshared(), kernel);
  ASSERT_GT(p.samples(), 0u);

  double self_sum = 0.0;
  for (std::size_t i = 0; i < prof::kNumPhases; ++i) {
    const auto ph = static_cast<prof::Phase>(i);
    // A sample lands only on an open phase, so only on a counted one.
    if (p.samples(ph) > 0) {
      EXPECT_GT(p.calls(ph), 0u) << to_string(ph);
    }
    self_sum += p.self_seconds(ph);
  }
  // Estimated self times split the exactly timed wall (FP rounding aside).
  EXPECT_NEAR(self_sum, p.wall_seconds(), 1e-9 * p.wall_seconds());
  EXPECT_GT(p.wall_seconds(), 0.0);
}

TEST(ProfEngine, SweepRowsIdenticalAndProfilersMerged) {
  runner::SweepSpec spec;
  const KernelInfo kernel = shrink(workloads::hotspot(), 4);
  GpuConfig cycle = configs::unshared();
  cycle.exec_mode = ExecMode::kCycle;
  GpuConfig event = configs::unshared();
  event.exec_mode = ExecMode::kEvent;
  spec.add("cycle", cycle, kernel);
  spec.add("event", event, kernel);

  const std::vector<runner::SweepRow> plain = runner::run_sweep(spec);
  prof::HostProfiler merged;
  runner::RunOptions options;
  options.prof = &merged;
  const std::vector<runner::SweepRow> profiled = runner::run_sweep(spec, options);

  ASSERT_EQ(plain.size(), profiled.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(encode_result(plain[i].result), encode_result(profiled[i].result)) << i;
  // Two points merged post-run, in point order.
  EXPECT_EQ(merged.calls(prof::Phase::kSimulate), 2u);
  // The event point slept through idle windows; its bookkeeping was counted.
  EXPECT_GT(merged.calls(prof::Phase::kEventSleep), 0u);
}

TEST(ProfEngine, ThreadedSweepSamplesOnItsWorkers) {
  // Two machines, two workers, no cache: every root scope (simulate) opens on
  // a worker thread, so every sample came from a worker's own sampler.
  runner::SweepSpec spec;
  const KernelInfo kernel = shrink(workloads::hotspot(), 28);
  spec.add("unshared", configs::unshared(), kernel);
  spec.add("shared", configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1), kernel);
  prof::HostProfiler merged;
  runner::RunOptions options;
  options.threads = 2;
  options.prof = &merged;
  (void)runner::run_sweep(spec, options);
  EXPECT_EQ(merged.calls(prof::Phase::kSimulate), 2u);
  EXPECT_GT(merged.samples(), 0u);
  // A sampler ticks once a millisecond, and only while a root is open.
  EXPECT_LE(static_cast<double>(merged.samples()), merged.wall_seconds() * 1000.0 + 4.0);
}

TEST(ProfEngine, CacheLookupAndStorePhasesAreTimed) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "grs_prof_cache").string();
  std::filesystem::remove_all(dir);

  runner::SweepSpec spec;
  spec.add("pt", configs::unshared(), shrink(workloads::hotspot(), 4));

  runner::RunOptions options;
  options.cache_dir = dir;
  options.cache_mode = cache::CacheMode::kReadWrite;

  prof::HostProfiler cold;
  options.prof = &cold;
  const auto cold_rows = runner::run_sweep(spec, options);
  EXPECT_EQ(cold.calls(prof::Phase::kCacheLookup), 1u);
  EXPECT_EQ(cold.calls(prof::Phase::kCacheStore), 1u);
  EXPECT_EQ(cold.calls(prof::Phase::kSimulate), 1u);

  prof::HostProfiler warm;
  options.prof = &warm;
  const auto warm_rows = runner::run_sweep(spec, options);
  EXPECT_EQ(warm.calls(prof::Phase::kCacheLookup), 1u);
  EXPECT_EQ(warm.calls(prof::Phase::kCacheStore), 0u);  // hit: nothing stored
  EXPECT_EQ(warm.calls(prof::Phase::kSimulate), 0u);    // hit: nothing simulated
  EXPECT_TRUE(warm_rows[0].from_cache);
  EXPECT_EQ(encode_result(cold_rows[0].result), encode_result(warm_rows[0].result));

  std::filesystem::remove_all(dir);
}

TEST(ProfOutputs, WriteCreatesExactlyTheRequestedFiles) {
  prof::HostProfiler p;
  p.add_sample(prof::Phase::kSimulate);

  const std::filesystem::path dir = testing::TempDir();
  const std::string json_path = (dir / "prof_out.json").string();
  const std::string folded_path = (dir / "prof_out.folded").string();
  std::filesystem::remove(json_path);
  std::filesystem::remove(folded_path);

  // Empty paths mean "off": no file appears (the CLIs' prof-off default).
  prof::write_prof_outputs(p, "", "");
  EXPECT_FALSE(std::filesystem::exists(json_path));
  EXPECT_FALSE(std::filesystem::exists(folded_path));

  prof::write_prof_outputs(p, json_path, folded_path);
  EXPECT_EQ(slurp(json_path), p.json());
  EXPECT_EQ(slurp(folded_path), "simulate 1\n");
  std::filesystem::remove(json_path);
  std::filesystem::remove(folded_path);
}

TEST(Manifest, HostSectionCarriesBuildAttribution) {
  runner::RunManifest manifest("test");
  const std::string json = manifest.to_json();
  EXPECT_NE(json.find("\"git_commit\":"), std::string::npos);
  EXPECT_NE(json.find("\"git_dirty\":"), std::string::npos);
  EXPECT_NE(json.find("\"build_type\":"), std::string::npos);
  EXPECT_NE(json.find("\"compiler\":"), std::string::npos);
}

}  // namespace
}  // namespace grs
