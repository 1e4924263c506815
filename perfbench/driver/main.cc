// grs_perfbench — one workload of the end-to-end benchmark, in its own process.
//
//   grs_perfbench --workload paper_fig8|fuzz_memory|study_warm --seed N
//                 --seconds S --work-dir DIR --corpus DIR
//                 [--fuzz-start F] [--trace]
//
// --work-dir is scratch space for study_warm's stores and reports; it is
// removed at exit.
//
// Set-up, repeated and timed, then round(S / nominal pass length) passes (at
// least two) over a fixed op list, every op timed. The pass count never
// depends on measured speed. With --trace the process instead runs one
// untimed pass, one traced pass (a span around every public call, see
// spans.h) and one pass under prof::HostProfiler. Every simulated output is
// checked; mismatches are reported, never fatal. Prints one JSON document of
// raw measurements on stdout; perfbench/run.py turns it into metrics.
//
// Only public entry points are called: runner::run_sweep, simulate,
// cache::result_cache_key, cache::ResultCache, study::build_plan /
// to_sweep_spec / aggregate / write_reports, workloads::gen::generate and
// runner::load_kernel_dir. The simulator sources are not modified.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/key.h"
#include "cache/result_cache.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/hash.h"
#include "gpu/result_codec.h"
#include "gpu/simulator.h"
#include "prof/prof.h"
#include "runner/engine.h"
#include "runner/kernel_source.h"
#include "runner/registry.h"
#include "spans.h"
#include "study/aggregate.h"
#include "study/plan.h"
#include "study/report.h"
#include "workloads/gen/generator.h"
#include "workloads/gen/profile.h"

namespace fs = std::filesystem;
using namespace grs;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

namespace {

/// Replica lanes of the timed passes (see Lane).
constexpr std::size_t kLanes = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;    ///< scratch space (study_warm stores and reports)
  std::string corpus_dir;  ///< the saved .gkd corpus
  std::uint64_t fuzz_start = 0;
  bool trace = false;
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_nums(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i == 0 ? "" : ",") + json_num(v[i]);
  return out + "]";
}

std::string digest(const SimResult& r) { return sha256_hex(encode_result(r)); }

/// Deterministic Fisher-Yates: --seed orders a pinned input set.
template <class T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng() % i]);
}

/// Modelled counters summed over every simulation of one pass. Host-side
/// changes must leave all of them identical.
struct ModelCounters {
  std::uint64_t sims = 0, cycles = 0, sm_cycles = 0, warp_insts = 0;
  std::uint64_t issued = 0, stall = 0, idle = 0;
  std::uint64_t l1_accesses = 0, l1_misses = 0, l2_accesses = 0, l2_misses = 0;
  std::uint64_t dram_requests = 0, dram_row_hits = 0;
  std::uint64_t resident_blocks = 0, lock_acquisitions = 0, lock_wait_cycles = 0;
  std::uint64_t dyn_throttled = 0;

  void add(const SimResult& r) {
    const SmStats& s = r.stats.sm_total;
    ++sims;
    cycles += r.stats.cycles;
    sm_cycles += r.stats.cycles * r.config.num_sms;
    warp_insts += s.warp_instructions;
    issued += s.issued_cycles;
    stall += s.stall_cycles;
    idle += s.idle_cycles;
    l1_accesses += s.l1_accesses;
    l1_misses += s.l1_misses;
    l2_accesses += r.stats.l2_accesses;
    l2_misses += r.stats.l2_misses;
    dram_requests += r.stats.dram_requests;
    dram_row_hits += r.stats.dram_row_hits;
    resident_blocks += r.occupancy.total_blocks;
    lock_acquisitions += s.lock_acquisitions;
    lock_wait_cycles += s.lock_wait_cycles;
    dyn_throttled += s.dyn_throttled_issues;
  }

  [[nodiscard]] std::string json() const {
    const std::pair<const char*, std::uint64_t> fields[] = {
        {"sims", sims},
        {"cycles", cycles},
        {"sm_cycles", sm_cycles},
        {"warp_insts", warp_insts},
        {"issued_cycles", issued},
        {"stall_cycles", stall},
        {"idle_cycles", idle},
        {"l1_accesses", l1_accesses},
        {"l1_misses", l1_misses},
        {"l2_accesses", l2_accesses},
        {"l2_misses", l2_misses},
        {"dram_requests", dram_requests},
        {"dram_row_hits", dram_row_hits},
        {"resident_blocks", resident_blocks},
        {"lock_acquisitions", lock_acquisitions},
        {"lock_wait_cycles", lock_wait_cycles},
        {"dyn_throttled_issues", dyn_throttled},
    };
    std::string out = "{";
    for (const auto& [name, value] : fields)
      out += (out.size() > 1 ? ",\"" : "\"") + std::string(name) + "\":" + std::to_string(value);
    return out + "}";
  }
};

/// One untraced run_sweep call: its wall next to the engine's own per-cell
/// times, for the runner layer's overhead and pool utilization.
struct SweepTiming {
  unsigned threads = 1;
  double wall_ms = 0.0;
  double cells_ms = 0.0;
};

/// Op and failure counts, with the first few failure messages.
struct Tally {
  std::uint64_t ops = 0, failed = 0;
  std::vector<std::string> failures;

  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    if (failures.size() < 20) failures.push_back(why);
  }
};

/// One replica of the timed passes. Lanes run the same passes at the same
/// time, each on its own vCPU. A shared host slows each vCPU down in
/// stretches of seconds, independently of the others, so an op's fastest time
/// over all lanes and passes is its steadiest estimate (run.py takes it).
/// A pass appends to its lane only once all its work is done.
struct Lane : Tally {
  std::size_t index = 0;
  std::vector<double> pass_s, op_ms;
  std::vector<SweepTiming> sweeps;
  std::vector<SimResult> first;      ///< results of the lane's first pass
  std::vector<std::string> digests;  ///< paper_fig8: every point of every pass
  std::uint64_t report_bytes = 0;    ///< study_warm: one regeneration's reports
};

/// Everything one process measured.
struct Run : Tally {
  std::vector<std::vector<double>> setup_s;  ///< per vCPU the set-up ran on
  std::vector<Lane> lanes;
  std::string points = "[]";  ///< paper_fig8: per-point cycles and digests
  std::string report_digest;  ///< study_warm: digest of one regeneration's reports
  std::uint64_t report_bytes = 0;
  std::uint64_t kernels = 0;
  ModelCounters counters;  ///< over one pass (study_warm: the cold set-up)

  // --trace only.
  double untraced_s = 0.0, traced_s = 0.0, profiled_s = 0.0, profiled_base_s = 0.0;
  SpanLog spans;
  std::vector<SweepTiming> sweeps;  ///< set-up sweeps; the lanes hold their own
  cache::CacheStats cache;
  prof::HostProfiler prof;
};

/// run_sweep, timed from outside and recorded for the runner layer.
std::vector<runner::SweepRow> timed_sweep(const runner::SweepSpec& spec,
                                          const runner::RunOptions& options,
                                          std::vector<SweepTiming>& timings) {
  const WallTimer t;
  std::vector<runner::SweepRow> rows = runner::run_sweep(spec, options);
  SweepTiming timing;
  timing.wall_ms = t.seconds() * 1000.0;
  timing.threads = static_cast<unsigned>(std::min<std::size_t>(options.threads, rows.size()));
  for (const runner::SweepRow& row : rows) timing.cells_ms += row.wall_ms;
  timings.push_back(timing);
  return rows;
}

runner::RunOptions engine_options(unsigned threads) {
  runner::RunOptions o;
  o.threads = threads;
  return o;
}

// --- paper_fig8 --------------------------------------------------------------

/// The fig8 registry grid (30 simulate() calls), event mode, cache off, one
/// engine thread. --seed only orders the points.
class PaperFig8 {
 public:
  static constexpr int kSetupReps = 101;
  static constexpr int kSetupThreads = 1;
  static constexpr double kPassSeconds = 10.0;
  explicit PaperFig8(const Args& args) : seed_(args.seed) {}

  double setup(Run& run) {
    const WallTimer t;
    const runner::BenchDef* def = runner::find_bench("fig8");
    if (def == nullptr) throw std::runtime_error("fig8 is not registered");
    spec_ = def->build();
    shuffle(spec_.points, seed_);
    const double s = t.seconds();
    std::vector<std::string> names;
    for (const runner::SweepPoint& p : spec_.points) names.push_back(p.kernel.name);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    run.kernels = names.size();
    return s;
  }

  [[nodiscard]] std::uint64_t ops_per_pass() const { return spec_.points.size(); }

  void pass(Lane& lane) const {
    std::vector<SweepTiming> sweeps;
    const WallTimer t;
    const std::vector<runner::SweepRow> rows = timed_sweep(spec_, engine_options(1), sweeps);
    lane.pass_s.push_back(t.seconds());
    lane.ops += rows.size();
    lane.sweeps.insert(lane.sweeps.end(), sweeps.begin(), sweeps.end());
    const bool first = lane.first.empty();
    for (const runner::SweepRow& row : rows) {
      lane.op_ms.push_back(row.wall_ms);
      lane.digests.push_back(digest(row.result));
      if (first) lane.first.push_back(row.result);
    }
  }

  /// Every pass of every lane must repeat lane 0's first pass bit for bit;
  /// run.py checks that pass against the committed reference.
  void finish(Run& run) {
    const Lane& lead = run.lanes.front();
    if (lead.first.empty()) return;  // every pass of lane 0 threw
    run.points = "[";
    for (std::size_t i = 0; i < lead.first.size(); ++i) {
      first_.push_back(lead.digests[i]);
      run.counters.add(lead.first[i]);
      run.points += (i == 0 ? "" : ",") + std::string("{\"variant\":") +
                    json_str(spec_.points[i].variant) +
                    ",\"kernel\":" + json_str(spec_.points[i].kernel.name) +
                    ",\"cycles\":" + std::to_string(lead.first[i].stats.cycles) +
                    ",\"digest\":" + json_str(first_.back()) + "}";
    }
    run.points += "]";
    for (const Lane& lane : run.lanes) {
      for (std::size_t j = 0; j < lane.digests.size(); ++j) {
        if (lane.digests[j] != first_[j % first_.size()])
          run.fail(1, "lane " + std::to_string(lane.index) + ": " + describe(j % first_.size()) +
                          " differs from the first pass");
      }
    }
  }

  void traced(Run& run) {
    std::vector<SimResult> results(spec_.points.size());
    const WallTimer t;
    for (std::size_t i = 0; i < spec_.points.size(); ++i) {
      run.spans.set_op(static_cast<int>(i) + 1);
      const ScopedSpan op(&run.spans, "bench.op");
      const ScopedSpan s(&run.spans, "gpu.simulate");
      results[i] = simulate(spec_.points[i].config, spec_.points[i].kernel);
    }
    run.traced_s = t.seconds();
    for (std::size_t i = 0; i < results.size(); ++i) check(i, results[i], "traced pass", run);
  }

  void profiled(Run& run) {
    runner::RunOptions o = engine_options(1);
    o.prof = &run.prof;
    const WallTimer t;
    const std::vector<runner::SweepRow> rows = runner::run_sweep(spec_, o);
    run.profiled_s = t.seconds();
    run.profiled_base_s = run.untraced_s;
    for (std::size_t i = 0; i < rows.size(); ++i) check(i, rows[i].result, "profiled pass", run);
  }

 private:
  [[nodiscard]] std::string describe(std::size_t i) const {
    return spec_.points[i].variant + " on " + spec_.points[i].kernel.name;
  }

  void check(std::size_t i, const SimResult& r, const char* where, Run& run) const {
    if (digest(r) != first_[i])
      run.fail(1, std::string(where) + ": " + describe(i) + " differs from the first pass");
  }

  std::uint64_t seed_;
  runner::SweepSpec spec_;
  std::vector<std::string> first_;  ///< lane 0's first pass, once finish() ran
};

// --- fuzz_memory -------------------------------------------------------------

/// grs_fuzz's cycle/event oracle over a pinned window of memory_bound seeds
/// starting at --fuzz-start: its fast configuration-line set, both exec modes,
/// its 300000-cycle cap, cache off, one engine thread. Work per seed varies
/// about 100x, so the window is fixed and --seed only orders the kernels. One
/// op is one line's cycle/event pair.
class FuzzMemory {
 public:
  static constexpr int kSetupReps = 21;
  static constexpr int kSetupThreads = 1;
  static constexpr double kPassSeconds = 4.0;
  static constexpr Cycle kMaxCycles = 300000;
  static constexpr std::uint64_t kSeeds = 7;
  explicit FuzzMemory(const Args& args) : seed_(args.seed), start_(args.fuzz_start) {}

  double setup(Run& run) {
    const WallTimer t;
    build(nullptr);
    const double s = t.seconds();
    run.kernels = kernels_.size();
    return s;
  }

  [[nodiscard]] std::uint64_t ops_per_pass() const {
    std::uint64_t n = 0;
    for (const runner::SweepSpec& s : specs_) n += s.size() / 2;
    return n;
  }

  void pass(Lane& lane) const {
    std::vector<std::vector<runner::SweepRow>> rows;
    std::vector<SweepTiming> sweeps;
    const WallTimer t;
    for (const runner::SweepSpec& spec : specs_)
      rows.push_back(timed_sweep(spec, engine_options(1), sweeps));
    lane.pass_s.push_back(t.seconds());
    lane.sweeps.insert(lane.sweeps.end(), sweeps.begin(), sweeps.end());
    const bool first = lane.first.empty();
    for (std::size_t k = 0; k < rows.size(); ++k) {
      for (std::size_t j = 0; j + 1 < rows[k].size(); j += 2) {
        if (first) {
          lane.first.push_back(rows[k][j].result);
          lane.first.push_back(rows[k][j + 1].result);
        }
        ++lane.ops;
        lane.op_ms.push_back(rows[k][j].wall_ms + rows[k][j + 1].wall_ms);
        compare(k, j, rows[k][j].result, rows[k][j + 1].result, lane);
      }
    }
  }

  void finish(Run& run) const {
    for (const SimResult& r : run.lanes.front().first) run.counters.add(r);
  }

  void traced(Run& run) {
    run.spans.set_op(0);
    {
      const ScopedSpan setup(&run.spans, "bench.setup");
      build(&run.spans);
    }
    std::vector<std::vector<SimResult>> results(specs_.size());
    int op = 0;
    const WallTimer t;
    for (std::size_t k = 0; k < specs_.size(); ++k) {
      const std::vector<runner::SweepPoint>& points = specs_[k].points;
      for (std::size_t j = 0; j + 1 < points.size(); j += 2) {
        run.spans.set_op(++op);
        const ScopedSpan s(&run.spans, "bench.op");
        for (std::size_t m = j; m < j + 2; ++m) {
          const ScopedSpan sim(&run.spans, "gpu.simulate");
          results[k].push_back(simulate(points[m].config, points[m].kernel));
        }
      }
    }
    run.traced_s = t.seconds();
    for (std::size_t k = 0; k < results.size(); ++k)
      for (std::size_t j = 0; j + 1 < results[k].size(); j += 2)
        compare(k, j, results[k][j], results[k][j + 1], run);
  }

  void profiled(Run& run) {
    runner::RunOptions o = engine_options(1);
    o.prof = &run.prof;
    const WallTimer t;
    for (std::size_t k = 0; k < specs_.size(); ++k) {
      const std::vector<runner::SweepRow> rows = runner::run_sweep(specs_[k], o);
      for (std::size_t j = 0; j + 1 < rows.size(); j += 2)
        compare(k, j, rows[j].result, rows[j + 1].result, run);
    }
    run.profiled_s = t.seconds();
    run.profiled_base_s = run.untraced_s;
  }

 private:
  /// grs_fuzz's fast line set (bench/grs_fuzz.cc, config_lines without --full).
  static std::vector<GpuConfig> lines(const KernelInfo& k) {
    std::vector<GpuConfig> c = {configs::unshared(SchedulerKind::kLrr),
                                configs::unshared(SchedulerKind::kGto),
                                configs::shared_noopt(Resource::kRegisters),
                                configs::shared_owf_unroll_dyn(Resource::kRegisters)};
    if (k.resources.smem_per_block > 0) c.push_back(configs::shared_owf(Resource::kScratchpad));
    return c;
  }

  void build(SpanLog* spans) {
    kernels_.clear();
    specs_.clear();
    for (std::uint64_t s = start_; s < start_ + kSeeds; ++s) {
      const ScopedSpan span(spans, "workloads.generate");
      kernels_.push_back(workloads::gen::generate(workloads::gen::memory_bound(), s));
    }
    shuffle(kernels_, seed_);
    for (const KernelInfo& k : kernels_) {
      runner::SweepSpec spec;
      for (const GpuConfig& line : lines(k)) {
        for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
          GpuConfig cfg = line;
          cfg.exec_mode = mode;
          cfg.max_cycles = kMaxCycles;
          spec.add(line.line_label() + (mode == ExecMode::kCycle ? "|cycle" : "|event"), cfg, k);
        }
      }
      specs_.push_back(std::move(spec));
    }
  }

  void compare(std::size_t k, std::size_t j, const SimResult& cycle, const SimResult& event,
               Tally& tally) const {
    if (cycle.stats != event.stats)
      tally.fail(1, "cycle/event divergence: " + kernels_[k].name + " on " +
                        specs_[k].points[j].variant);
  }

  std::uint64_t seed_, start_;
  std::vector<KernelInfo> kernels_;
  std::vector<runner::SweepSpec> specs_;
};

// --- study_warm --------------------------------------------------------------

std::string read_file(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// A slice of the study grid (grid seed = --seed) plus the saved corpus. Set-up
/// is a cold regeneration into an empty store with two engine threads; one op
/// is a warm regeneration: plan, all-hit run_sweep, aggregate, write_reports.
class StudyWarm {
 public:
  static constexpr int kSetupReps = 3;
  static constexpr int kSetupThreads = 2;  ///< the cold regeneration's engine threads
  static constexpr double kPassSeconds = 1.0;
  static constexpr int kOpsPerPass = 100;

  explicit StudyWarm(const Args& args) : corpus_dir_(args.corpus_dir), root_(args.work_dir) {
    grid_.regs = {28, 44};
    grid_.staging = {0, 6144};
    grid_.memory = {0, 2};
    grid_.lanes = {32, 8};
    grid_.percents = study::default_grid().percents;
    grid_.seed = args.seed;
    if (root_.empty()) throw std::runtime_error("study_warm needs --work-dir");
  }
  ~StudyWarm() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  StudyWarm(const StudyWarm&) = delete;
  StudyWarm& operator=(const StudyWarm&) = delete;

  double setup(Run& run) {
    if (!store_.empty()) fs::remove_all(store_);
    store_ = fresh_dir("store");
    const fs::path out = fresh_dir("cold");
    runner::RunOptions o = engine_options(2);
    o.cache_dir = store_.string();
    o.cache_mode = cache::CacheMode::kReadWrite;
    std::vector<runner::SweepRow> rows;
    const WallTimer t;
    const study::StudyPlan plan = study::build_plan(grid_, corpus_dir_);
    rows = timed_sweep(study::to_sweep_spec(plan), o, run.sweeps);
    const std::vector<std::string> files =
        study::write_reports(study::aggregate(plan, runner::BenchView(rows)), out.string());
    const double s = t.seconds();

    cold_ = read_reports(out, files);
    run.report_digest = sha256_hex(cold_);
    run.kernels = plan.cells.size() + plan.corpus.size();
    run.counters = ModelCounters{};
    for (const runner::SweepRow& row : rows) run.counters.add(row.result);
    fs::remove_all(out);
    return s;
  }

  [[nodiscard]] std::uint64_t ops_per_pass() const { return kOpsPerPass; }

  void pass(Lane& lane) const {
    const fs::path out = root_ / ("warm-lane-" + std::to_string(lane.index));
    fs::create_directories(out);
    runner::RunOptions o = engine_options(1);
    o.cache_dir = store_.string();
    o.cache_mode = cache::CacheMode::kReadWrite;
    std::vector<double> op_ms;
    std::vector<SweepTiming> sweeps;
    for (int i = 0; i < kOpsPerPass; ++i) {
      std::vector<runner::SweepRow> rows;
      const WallTimer t;
      const study::StudyPlan plan = study::build_plan(grid_, corpus_dir_);
      rows = timed_sweep(study::to_sweep_spec(plan), o, sweeps);
      const std::vector<std::string> files =
          study::write_reports(study::aggregate(plan, runner::BenchView(rows)), out.string());
      op_ms.push_back(t.seconds() * 1000.0);
      const bool all_hits = std::all_of(rows.begin(), rows.end(),
                                        [](const runner::SweepRow& r) { return r.from_cache; });
      const std::string reports = read_reports(out, files);
      lane.report_bytes = reports.size();
      check(reports, all_hits, "warm op", lane);
    }
    double wall_ms = 0.0;
    for (const double ms : op_ms) wall_ms += ms;
    lane.pass_s.push_back(wall_ms / 1000.0);
    lane.op_ms.insert(lane.op_ms.end(), op_ms.begin(), op_ms.end());
    lane.sweeps.insert(lane.sweeps.end(), sweeps.begin(), sweeps.end());
    lane.ops += kOpsPerPass;
  }

  void finish(Run& run) const { run.report_bytes = run.lanes.front().report_bytes; }

  void traced(Run& run) {
    const fs::path store = fresh_dir("traced-store");
    traced_out_ = fresh_dir("traced-reports");
    cache::ResultCache cache(store.string(), cache::CacheMode::kReadWrite);
    run.spans.set_op(0);
    std::vector<std::string> files;
    {
      const ScopedSpan s(&run.spans, "bench.setup");
      files = regenerate_traced(cache, run, nullptr);
    }
    check(read_reports(traced_out_, files), true, "traced cold regeneration", run);
    for (int i = 0; i < kOpsPerPass; ++i) {
      run.spans.set_op(i + 1);
      bool all_hits = true;
      {
        const WallTimer t;
        const ScopedSpan s(&run.spans, "bench.op");
        files = regenerate_traced(cache, run, &all_hits);
        run.traced_s += t.seconds();
      }
      check(read_reports(traced_out_, files), all_hits, "traced warm op", run);
    }
    run.cache = cache.stats();
  }

  void profiled(Run& run) {
    runner::RunOptions o = engine_options(2);
    o.cache_dir = fresh_dir("profiled-store").string();
    o.cache_mode = cache::CacheMode::kReadWrite;
    o.prof = &run.prof;
    const study::StudyPlan plan = study::build_plan(grid_, corpus_dir_);
    const runner::SweepSpec spec = study::to_sweep_spec(plan);
    const WallTimer t;
    const std::vector<runner::SweepRow> rows = runner::run_sweep(spec, o);
    run.profiled_s = t.seconds();
    run.profiled_base_s = run.sweeps.front().wall_ms / 1000.0;  // the cold set-up sweep
    const fs::path out = fresh_dir("profiled");
    const std::vector<std::string> files =
        study::write_reports(study::aggregate(plan, runner::BenchView(rows)), out.string());
    check(read_reports(out, files), true, "profiled cold regeneration", run);
  }

 private:
  /// A new empty directory under the work dir (removed with it at exit).
  fs::path fresh_dir(const std::string& name) {
    const fs::path d = root_ / (name + "-" + std::to_string(dirs_++));
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
  }

  /// The regenerated report files, concatenated with their names.
  static std::string read_reports(const fs::path& dir, const std::vector<std::string>& files) {
    std::string all;
    for (const std::string& f : files) all += f + "\n" + read_file(dir / f);
    return all;
  }

  void check(const std::string& reports, bool all_hits, const char* where, Tally& tally) const {
    if (!all_hits) tally.fail(1, std::string(where) + ": a warm regeneration missed the store");
    else if (reports != cold_)
      tally.fail(1, std::string(where) + ": reports differ from the cold regeneration");
  }

  /// The regeneration decomposed into the public calls run_sweep makes per
  /// point (key, lookup, and on a miss simulate + store), one span each.
  /// `all_hits` null means a cold pass (every point is expected to miss).
  /// Returns the report files written into traced_out_.
  std::vector<std::string> regenerate_traced(cache::ResultCache& cache, Run& run,
                                             bool* all_hits) {
    SpanLog* log = &run.spans;
    study::StudyPlan plan;
    {
      const ScopedSpan s(log, "study.build_plan");
      plan = study::build_plan(grid_, "");
    }
    {
      const ScopedSpan s(log, "workloads.load_kernel_dir");
      plan.corpus = runner::load_kernel_dir(corpus_dir_);
    }
    runner::SweepSpec spec;
    {
      const ScopedSpan s(log, "study.to_sweep_spec");
      spec = study::to_sweep_spec(plan);
    }
    std::vector<runner::SweepRow> rows(spec.points.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const runner::SweepPoint& p = spec.points[i];
      rows[i].point = p;
      std::string key;
      {
        const ScopedSpan s(log, "cache.result_cache_key");
        key = cache::result_cache_key(p.config, p.kernel);
      }
      bool hit = false;
      {
        const ScopedSpan s(log, "cache.lookup");
        hit = cache.lookup(key, nullptr, &rows[i].result);
      }
      if (hit) {
        rows[i].result.config = p.config;
        rows[i].from_cache = true;
        continue;
      }
      if (all_hits != nullptr) *all_hits = false;
      {
        const ScopedSpan s(log, "gpu.simulate");
        rows[i].result = simulate(p.config, p.kernel);
      }
      {
        const ScopedSpan s(log, "cache.store");
        cache.store(key, rows[i].result);
      }
    }
    study::StudyAggregation agg;
    {
      const ScopedSpan s(log, "study.aggregate");
      agg = study::aggregate(plan, runner::BenchView(rows));
    }
    const ScopedSpan s(log, "study.write_reports");
    return study::write_reports(agg, traced_out_.string());
  }

  study::StudyGrid grid_;
  std::string corpus_dir_;
  fs::path root_, store_, traced_out_;
  int dirs_ = 0;
  std::string cold_;
};

// --- driver ------------------------------------------------------------------

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {0};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// CPUs for `lanes` lanes, evenly spaced over those this process may use;
/// fewer when fewer are available.
std::vector<int> lane_cpus(std::size_t lanes) {
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t n = std::min(lanes, cpus.size());
  std::vector<int> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(cpus[i * cpus.size() / n]);
  return out;
}

/// Restrict the calling thread to `cpus`.
void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

template <class Workload>
void run_passes(const Workload& w, long passes, Lane& lane) {
  for (long i = 0; i < passes; ++i) {
    try {
      w.pass(lane);
    } catch (const std::exception& e) {
      // A pass that throws appended nothing; all its ops count as failed.
      lane.ops += w.ops_per_pass();
      lane.fail(w.ops_per_pass(), std::string("pass threw: ") + e.what());
    }
  }
}

/// Set-up times, one list per vCPU it ran on. A single-threaded set-up runs
/// its reps on each lane's vCPU in turn, for the reason the lanes exist;
/// run.py takes the fastest vCPU's median.
template <class Workload>
void time_setup(Workload& w, const std::vector<int>& cpus, int reps, Run& run) {
  const std::vector<int> all = allowed_cpus();
  const std::vector<int> where =
      Workload::kSetupThreads == 1 && !cpus.empty() ? cpus : std::vector<int>{-1};
  for (const int cpu : where) {
    if (cpu >= 0) pin_thread({cpu});
    run.setup_s.emplace_back();
    for (int i = 0; i < reps; ++i) run.setup_s.back().push_back(w.setup(run));
  }
  pin_thread(all);
}

template <class Workload>
void measure(Workload& w, const Args& args, Run& run) {
  const std::vector<int> cpus = lane_cpus(args.trace ? 1 : kLanes);
  time_setup(w, cpus, args.trace ? 1 : Workload::kSetupReps, run);

  // The pass count depends on --seconds only, never on measured speed, so
  // per-op minima over passes stay comparable across commits.
  const long passes =
      args.trace ? 1 : std::max(2L, std::lround(args.seconds / Workload::kPassSeconds));
  if (args.trace) {
    run.lanes.resize(1);
    run_passes(w, passes, run.lanes.front());
  } else {
    run.lanes.resize(cpus.size());
    std::vector<std::thread> threads;
    try {
      for (std::size_t i = 0; i < cpus.size(); ++i) {
        run.lanes[i].index = i;
        threads.emplace_back([&w, &run, &cpus, passes, i] {
          pin_thread({cpus[i]});
          run_passes(w, passes, run.lanes[i]);
        });
      }
    } catch (...) {
      for (std::thread& t : threads) t.join();
      throw;
    }
    for (std::thread& t : threads) t.join();
  }
  w.finish(run);
  if (!args.trace || run.lanes.front().pass_s.empty()) return;

  run.untraced_s = run.lanes.front().pass_s.back();
  try {
    w.traced(run);
    w.profiled(run);
  } catch (const std::exception& e) {
    run.fail(1, std::string("traced or profiled pass threw: ") + e.what());
  }
}

/// Peak resident set of this process image in KiB (VmHWM). getrusage's
/// ru_maxrss would also count the parent's footprint from before exec.
std::uint64_t peak_rss_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string emit(const Args& args, const Run& run) {
  // Lanes are concatenated: run.py splits op_ms into passes of equal length.
  std::vector<double> pass_s, op_ms;
  std::vector<SweepTiming> sweeps = run.sweeps;
  std::uint64_t ops = run.ops, failed = run.failed;
  std::vector<std::string> failures = run.failures;
  for (const Lane& lane : run.lanes) {
    pass_s.insert(pass_s.end(), lane.pass_s.begin(), lane.pass_s.end());
    op_ms.insert(op_ms.end(), lane.op_ms.begin(), lane.op_ms.end());
    sweeps.insert(sweeps.end(), lane.sweeps.begin(), lane.sweeps.end());
    ops += lane.ops;
    failed += lane.failed;
    failures.insert(failures.end(), lane.failures.begin(), lane.failures.end());
  }
  std::ostringstream o;
  o << "{\"workload\":" << json_str(args.workload) << ",\"seed\":" << args.seed
    << ",\"lanes\":" << run.lanes.size() << ",\"setup_s\":[";
  for (std::size_t i = 0; i < run.setup_s.size(); ++i)
    o << (i == 0 ? "" : ",") << json_nums(run.setup_s[i]);
  o << "]"
    << ",\"pass_s\":" << json_nums(pass_s) << ",\"op_ms\":" << json_nums(op_ms)
    << ",\"ops\":" << ops << ",\"failed_ops\":" << failed << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i)
    o << (i == 0 ? "" : ",") << json_str(failures[i]);
  o << "],\"peak_rss_kb\":" << peak_rss_kb() << ",\"points\":" << run.points
    << ",\"report_digest\":" << json_str(run.report_digest)
    << ",\"report_bytes\":" << run.report_bytes << ",\"kernels\":" << run.kernels;
  if (args.trace) {
    o << ",\"trace\":{\"untraced_s\":" << json_num(run.untraced_s)
      << ",\"traced_s\":" << json_num(run.traced_s)
      << ",\"profiled_s\":" << json_num(run.profiled_s)
      << ",\"profiled_base_s\":" << json_num(run.profiled_base_s)
      << ",\"counters\":" << run.counters.json() << ",\"sweeps\":[";
    for (std::size_t i = 0; i < sweeps.size(); ++i)
      o << (i == 0 ? "" : ",") << "[" << sweeps[i].threads << "," << json_num(sweeps[i].wall_ms)
        << "," << json_num(sweeps[i].cells_ms) << "]";
    const cache::CacheStats& c = run.cache;
    o << "],\"cache\":{\"hits\":" << c.hits << ",\"misses\":" << c.misses
      << ",\"corrupt\":" << c.corrupt << ",\"stores\":" << c.stores
      << ",\"bytes_read\":" << c.bytes_read << ",\"bytes_written\":" << c.bytes_written
      << "},\"prof\":{";
    for (std::size_t i = 0; i < prof::kNumPhases; ++i) {
      const auto p = static_cast<prof::Phase>(i);
      o << (i == 0 ? "" : ",") << json_str(prof::to_string(p)) << ":{\"calls\":"
        << run.prof.calls(p) << ",\"self_s\":" << json_num(run.prof.self_seconds(p)) << "}";
    }
    o << "},\"spans\":" << run.spans.json() << "}";
  }
  o << "}";
  return o.str();
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "grs_perfbench: %s (see the header of perfbench/driver/main.cc)\n",
               msg.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      a.trace = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--work-dir") a.work_dir = v;
      else if (flag == "--corpus") a.corpus_dir = v;
      else if (flag == "--fuzz-start") a.fuzz_start = std::stoull(v);
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + flag);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Run run;
  try {
    if (args.workload == "paper_fig8") {
      PaperFig8 w(args);
      measure(w, args, run);
    } else if (args.workload == "fuzz_memory") {
      FuzzMemory w(args);
      measure(w, args, run);
    } else if (args.workload == "study_warm") {
      StudyWarm w(args);
      measure(w, args, run);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
    std::printf("%s\n", emit(args, run).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grs_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
