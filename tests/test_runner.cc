// Runner subsystem: the sweep engine (determinism across worker counts, one
// simulation per distinct machine, exceptions thrown while planning and by
// simulation workers), sink well-formedness, the bench registry,
// kernel-spec resolution and corpus loading.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/key.h"
#include "common/config.h"
#include "common/io.h"
#include "gpu/result_codec.h"
#include "gpu/simulator.h"
#include "obs/obs.h"
#include "prof/prof.h"
#include "runner/engine.h"
#include "runner/kernel_source.h"
#include "runner/registry.h"
#include "runner/sink.h"
#include "runner/sweep.h"
#include "study/plan.h"
#include "workloads/format/gkd.h"
#include "workloads/gen/generator.h"
#include "workloads/suites.h"
#include "workloads/trace/import.h"

namespace grs::runner {
namespace {

/// RunOptions with just a worker count (cache off, no progress callback).
RunOptions with_threads(unsigned n) {
  RunOptions o;
  o.threads = n;
  return o;
}

/// A small but non-trivial grid: 2 variants x 3 kernels, shrunk so one point
/// simulates in milliseconds.
SweepSpec tiny_spec() {
  SweepSpec s;
  const std::vector<ConfigVariant> variants = {
      ConfigVariant::of(configs::unshared()),
      ConfigVariant::of(configs::shared_owf_unroll_dyn(Resource::kRegisters))};
  std::vector<KernelInfo> kernels = workloads::set1();
  kernels.resize(3);
  for (KernelInfo& k : kernels) k.grid_blocks = 6;
  s.add_grid(variants, kernels);
  return s;
}

std::string csv_of(const std::vector<SweepRow>& rows) {
  std::ostringstream out;
  CsvSink sink(out);
  sink.begin();
  for (const SweepRow& r : rows) sink.add("tiny", r);
  sink.end();
  return out.str();
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::istringstream in(s);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::size_t count_fields(const std::string& csv_line) {
  return static_cast<std::size_t>(std::count(csv_line.begin(), csv_line.end(), ',')) + 1;
}

// --- engine exceptions --------------------------------------------------------

TEST(Engine, SerialPathPropagatesExceptionsToo) {
  RunOptions options;
  options.threads = 1;
  options.progress = [](std::size_t, std::size_t) {
    throw std::runtime_error("serial failure");
  };
  EXPECT_THROW((void)run_sweep(tiny_spec(), options), std::runtime_error);
}

TEST(Engine, ThrowingPointLetsTheOthersFinish) {
  // The throw reaches the caller rather than ending the process in a worker.
  // tiny_spec's six points are six machines, so it ends one job; the other
  // points still complete before run_sweep rethrows.
  const SweepSpec spec = tiny_spec();
  std::size_t calls = 0;
  RunOptions options = with_threads(4);
  options.progress = [&calls](std::size_t done, std::size_t) {
    ++calls;
    if (done == 2) throw std::runtime_error("sweep point failed");
  };
  EXPECT_THROW((void)run_sweep(spec, options), std::runtime_error);
  EXPECT_EQ(calls, spec.size());
}

TEST(Engine, ThrowWhilePlanningSimulatesNothing) {
  // A warm store serves every tiny_spec point, and one uncached point goes
  // first. The callback throws on the first hit, while planning, so run_sweep
  // throws before the uncached point is simulated or stored.
  const std::string dir = testing::TempDir() + "/grs_engine_throw_while_planning";
  std::filesystem::remove_all(dir);
  RunOptions options = with_threads(4);
  options.cache_dir = dir;
  options.cache_mode = cache::CacheMode::kReadWrite;
  (void)run_sweep(tiny_spec(), options);

  KernelInfo uncached = workloads::set1()[3];
  uncached.grid_blocks = 6;
  SweepSpec spec;
  spec.add("uncached", configs::unshared(), uncached);
  for (const SweepPoint& p : tiny_spec().points) spec.points.push_back(p);

  std::size_t calls = 0;
  prof::HostProfiler prof;
  options.prof = &prof;
  options.progress = [&calls](std::size_t, std::size_t) {
    ++calls;
    throw std::runtime_error("progress failed on a hit");
  };
  EXPECT_THROW((void)run_sweep(spec, options), std::runtime_error);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(prof.calls(prof::Phase::kSimulate), 0u);
  // The profile of the lookup made before the throw is still merged.
  EXPECT_GE(prof.calls(prof::Phase::kCacheLookup), 1u);
  const cache::ResultCache store(dir, cache::CacheMode::kRead);
  EXPECT_FALSE(std::filesystem::exists(
      store.entry_path(cache::result_cache_key(configs::unshared(), uncached))));
  std::filesystem::remove_all(dir);
}

// --- sweep spec ---------------------------------------------------------------

TEST(SweepSpec, GridIsVariantMajorKernelMinor) {
  const SweepSpec s = tiny_spec();
  ASSERT_EQ(s.size(), 6u);
  EXPECT_EQ(s.points[0].variant, "Unshared-LRR");
  EXPECT_EQ(s.points[0].kernel.name, s.points[3].kernel.name);
  EXPECT_EQ(s.points[3].variant, "Shared-OWF-Unroll-Dyn");
}

TEST(SweepSpec, FilterIsCaseInsensitiveSubstring) {
  SweepSpec s = tiny_spec();
  const std::string first = s.points[0].kernel.name;
  std::string shouty = first;
  for (char& c : shouty) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  s.filter_kernels(shouty);
  ASSERT_EQ(s.size(), 2u);  // one kernel, both variants
  for (const SweepPoint& p : s.points) EXPECT_EQ(p.kernel.name, first);

  SweepSpec all = tiny_spec();
  all.filter_kernels("");
  EXPECT_EQ(all.size(), 6u);

  SweepSpec none = tiny_spec();
  none.filter_kernels("no-such-kernel");
  EXPECT_TRUE(none.empty());
}

// --- engine -------------------------------------------------------------------

TEST(Engine, EmptySweepIsGracefullyEmpty) {
  const std::vector<SweepRow> rows = run_sweep(SweepSpec{}, with_threads(8));
  EXPECT_TRUE(rows.empty());

  // Sinks stay well-formed with zero rows.
  std::ostringstream csv_out;
  CsvSink csv(csv_out);
  csv.begin();
  csv.end();
  EXPECT_EQ(split_lines(csv_out.str()).size(), 1u);  // header only

  std::ostringstream json_out;
  JsonSink json(json_out);
  json.begin();
  json.end();
  EXPECT_EQ(json_out.str(), "[\n\n]\n");
}

TEST(Engine, ResultsArriveInSubmissionOrder) {
  const SweepSpec spec = tiny_spec();
  const std::vector<SweepRow> rows = run_sweep(spec, with_threads(4));
  ASSERT_EQ(rows.size(), spec.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].point.variant, spec.points[i].variant);
    EXPECT_EQ(rows[i].point.kernel.name, spec.points[i].kernel.name);
    EXPECT_GT(rows[i].result.stats.cycles, 0u);
  }
}

TEST(Engine, ByteIdenticalAcrossThreadCounts) {
  const SweepSpec spec = tiny_spec();
  const std::string csv1 = csv_of(run_sweep(spec, with_threads(1)));
  const std::string csv4 = csv_of(run_sweep(spec, with_threads(4)));
  const std::string csv8 = csv_of(run_sweep(spec, with_threads(8)));
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(csv1, csv8);
}

TEST(Engine, ProgressReachesTotal) {
  const SweepSpec spec = tiny_spec();
  std::size_t calls = 0, last_done = 0, total = 0;
  RunOptions options;
  options.threads = 4;
  options.progress = [&](std::size_t done, std::size_t n) {
    ++calls;
    if (done > last_done) last_done = done;
    total = n;
  };
  (void)run_sweep(spec, options);
  EXPECT_EQ(calls, spec.size());
  EXPECT_EQ(last_done, spec.size());
  EXPECT_EQ(total, spec.size());
}

/// Four study cells (regs 28/44 x no/severe staging), grids shrunk, crossed
/// with the six sharing percents of both families: 36 points. Points that
/// differ only in t often resolve to the same launch plan.
SweepSpec study_slice() {
  study::StudyGrid grid = study::default_grid();
  grid.regs = {28, 44};
  grid.staging = {0, 6144};
  grid.memory = {1};
  grid.lanes = {32};
  study::StudyPlan plan = study::build_plan(grid, "");
  for (study::StudyCell& c : plan.cells) c.kernel.grid_blocks = 28;
  return study::to_sweep_spec(plan);
}

TEST(Engine, SimulatesEachDistinctMachineOnce) {
  const SweepSpec spec = study_slice();
  ASSERT_EQ(spec.size(), 36u);
  // Distinct (config without t, resolved plan, kernel) triples of the slice.
  constexpr std::uint64_t kDistinctMachines = 17;
  std::vector<std::string> fresh;
  for (const SweepPoint& p : spec.points)
    fresh.push_back(encode_result(simulate(p.config, p.kernel)));
  const auto expect_fresh = [&](const std::vector<SweepRow>& rows) {
    ASSERT_EQ(rows.size(), spec.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(encode_result(rows[i].result), fresh[i]) << "point " << i;
      EXPECT_EQ(rows[i].result.config.fingerprint(), spec.points[i].config.fingerprint()) << i;
    }
  };

  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    prof::HostProfiler prof;
    RunOptions options = with_threads(threads);
    options.prof = &prof;
    expect_fresh(run_sweep(spec, options));
    EXPECT_EQ(prof.calls(prof::Phase::kSimulate), kDistinctMachines);
  }

  // A traced and timelined run simulates each machine once too. Each point's
  // files repeat its leader's, byte for byte what the point's own observed
  // simulate() writes: t never reaches the machine, so neither do the events.
  const std::string dir = testing::TempDir() + "/grs_engine_distinct_machines";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  prof::HostProfiler prof;
  RunOptions traced = with_threads(3);
  traced.prof = &prof;
  traced.trace_path = dir + "/trace.json";
  traced.timeline_path = dir + "/timeline.csv";
  expect_fresh(run_sweep(spec, traced));
  EXPECT_EQ(prof.calls(prof::Phase::kSimulate), kDistinctMachines);
  obs::ObsOptions opts;
  opts.trace = true;
  opts.timeline_interval = traced.timeline_interval;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    obs::SimObserver own(opts);
    (void)simulate(spec.points[i].config, spec.points[i].kernel, &own);
    // EXPECT_TRUE, not EXPECT_EQ: a mismatch would print whole traces.
    EXPECT_TRUE(read_file(obs_point_path(traced.trace_path, i, spec.size())) == own.trace_json())
        << "point " << i;
    EXPECT_TRUE(read_file(obs_point_path(traced.timeline_path, i, spec.size())) ==
                own.timeline_csv())
        << "point " << i;
  }
  std::filesystem::remove_all(dir);
}

// --- sinks --------------------------------------------------------------------

TEST(Sinks, CsvIsRectangular) {
  const std::vector<SweepRow> rows = run_sweep(tiny_spec(), with_threads(2));
  const std::string csv = csv_of(rows);
  EXPECT_EQ(csv.find('"'), std::string::npos);  // nothing needed quoting
  const std::vector<std::string> lines = split_lines(csv);
  ASSERT_EQ(lines.size(), rows.size() + 1);
  const std::size_t width = result_columns().size();
  for (const std::string& line : lines) EXPECT_EQ(count_fields(line), width);
}

TEST(Sinks, JsonIsStructurallySound) {
  const std::vector<SweepRow> rows = run_sweep(tiny_spec(), with_threads(2));
  std::ostringstream out;
  JsonSink sink(out);
  sink.begin();
  for (const SweepRow& r : rows) sink.add("tiny", r);
  sink.end();
  const std::string json = out.str();

  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  long depth = 0;
  std::size_t objects = 0;
  for (char c : json) {
    if (c == '{') {
      ++depth;
      ++objects;
    } else if (c == '}') {
      --depth;
    }
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(objects, rows.size());

  std::size_t kernels = 0;
  for (std::size_t pos = 0; (pos = json.find("\"kernel\": ", pos)) != std::string::npos;
       ++pos)
    ++kernels;
  EXPECT_EQ(kernels, rows.size());
}

TEST(Sinks, CellsMatchColumns) {
  const std::vector<SweepRow> rows = run_sweep(tiny_spec(), with_threads(2));
  ASSERT_FALSE(rows.empty());
  const auto cells = result_cells("tiny", rows[0]);
  EXPECT_EQ(cells.size(), result_columns().size());
  EXPECT_EQ(cells[0], "tiny");
  EXPECT_EQ(cells[1], rows[0].point.variant);
  EXPECT_EQ(cells[2], rows[0].point.kernel.name);
}

// --- registry -----------------------------------------------------------------

TEST(Registry, RegisterFindAndSortedListing) {
  register_bench({"ztest_registry_b", "later", [] { return SweepSpec{}; }, nullptr});
  register_bench({"ztest_registry_a", "earlier", [] { return SweepSpec{}; }, nullptr});

  const BenchDef* b = find_bench("ztest_registry_b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->title, "later");
  EXPECT_TRUE(b->build().empty());
  EXPECT_EQ(find_bench("no-such-bench"), nullptr);

  const std::vector<const BenchDef*> all = all_benches();
  ASSERT_GE(all.size(), 2u);
  for (std::size_t i = 1; i < all.size(); ++i) EXPECT_LT(all[i - 1]->name, all[i]->name);
}

TEST(Registry, BenchViewFindAndKernelOrder) {
  const std::vector<SweepRow> rows = run_sweep(tiny_spec(), with_threads(2));
  const BenchView view(rows);
  const std::vector<std::string> kernels = view.kernels();
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_EQ(kernels[0], rows[0].point.kernel.name);

  const SimResult* r = view.find("Unshared-LRR", kernels[1]);
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->stats.cycles, 0u);
  EXPECT_EQ(view.find("Unshared-LRR", "no-such-kernel"), nullptr);
  EXPECT_EQ(view.find("no-such-variant", kernels[0]), nullptr);
}

// --- kernel source --------------------------------------------------------------

TEST(KernelSource, ResolvesEverySpecForm) {
  // resolve_kernel() is the one way a frontend names a kernel; each spec form
  // must yield exactly what its loader returns (compared as canonical .gkd).
  const auto gkd = [](const KernelInfo& k) { return workloads::gkd::serialize(k); };
  const std::string gkd_path = GRS_SOURCE_DIR "/examples/kernels/staged_reduce.gkd";
  const std::string trace_path = testing::TempDir() + "/grs_kernel_source_trace.csv";
  {
    std::ofstream f(trace_path, std::ios::binary | std::ios::trunc);
    f << "pc,tid,addr,size\n";
    for (int tid = 0; tid < 64; ++tid) f << "0x40," << tid << "," << 0x10000 + tid * 4 << ",4\n";
  }
  EXPECT_EQ(gkd(resolve_kernel("hotspot")), gkd(workloads::hotspot()));
  EXPECT_EQ(gkd(resolve_kernel(gkd_path)), gkd(workloads::gkd::load_file(gkd_path)));
  EXPECT_EQ(gkd(resolve_kernel("gen:memory_bound:7")),
            gkd(workloads::gen::generate(workloads::gen::profile_by_name("memory_bound"), 7)));
  EXPECT_EQ(gkd(resolve_kernel("trace:" + trace_path)),
            gkd(workloads::trace::import_trace_file(trace_path)));

  // Malformed specs are errors a frontend can print, never aborts.
  for (const char* bad : {"gen:balanced", "gen:balanced:x", "gen:bogus:1", "trace:"}) {
    EXPECT_THROW((void)resolve_kernel(bad), std::runtime_error) << bad;
  }
  try {
    (void)resolve_kernel("no-such-kernel");
    ADD_FAILURE() << "no-such-kernel resolved";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("hotspot"), std::string::npos) << e.what();
  }
}

TEST(KernelSource, CorpusLoadsWhatThePaperMachineRuns) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "/grs_kernel_source_corpus";
  fs::remove_all(dir);
  // An unreadable directory is an error naming it and the override.
  try {
    (void)load_kernel_dir(dir);
    ADD_FAILURE() << "a missing corpus directory loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("GRS_CORPUS_DIR"), std::string::npos) << e.what();
  }
  fs::create_directories(dir);
  EXPECT_TRUE(load_kernel_dir(dir).empty());

  // A block over the register file (1024 threads x 40 registers) is skipped
  // like a malformed file, so the sweep runs what it can.
  fs::copy_file(GRS_SOURCE_DIR "/examples/kernels/staged_reduce.gkd", dir + "/staged_reduce.gkd");
  write_file(dir + "/big.gkd",
             "gkd 1\nkernel \"big\"\nthreads 1024\nregs 40\ngrid 28\n\nsegment x1 {\n"
             "  alu $r0\n  exit\n}\n");
  const std::vector<KernelInfo> kernels = load_kernel_dir(dir);
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].name, "staged_reduce");
}

}  // namespace
}  // namespace grs::runner
