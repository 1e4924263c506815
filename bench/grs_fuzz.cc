// grs_fuzz — differential fuzzer over generated kernels.
//
// PR 2 made the cycle and event execution modes bit-identical for every
// built-in kernel; that equivalence is this harness's oracle. For every
// (profile, seed) pair it generates a kernel (workloads/gen), runs it across
// scheduler × sharing configuration lines in BOTH execution modes via the
// parallel experiment engine (src/runner), and diffs the full statistics
// structs bit for bit. Any divergence dumps the kernel as a .gkd repro file
// (workloads/format) and fails the process.
//
// `grs_fuzz --help` documents every flag (print_help() below is the single
// source of truth; scripts/check_docs.sh keeps the docs in sync with it).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/parse.h"
#include "runner/engine.h"
#include "workloads/format/gkd.h"
#include "workloads/gen/generator.h"

using namespace grs;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n(grs_fuzz --help lists the flags)\n", msg.c_str());
  std::exit(2);
}

void print_help() {
  std::printf(
      "usage: grs_fuzz [options]\n"
      "\n"
      "Differential fuzzer: each (profile, seed) pair generates a kernel, runs it\n"
      "under scheduler x sharing configuration lines in both execution modes, and\n"
      "diffs the statistics bit for bit. A divergence writes a .gkd repro.\n"
      "\n"
      "  --seeds N        number of (profile, seed) pairs to run (default 20)\n"
      "  --start S        first seed (default 0); pair k uses seed S+k and, with\n"
      "                   --profile all, profile (S+k) mod #profiles\n"
      "  --profile P      a single profile for every seed (default: all)\n"
      "  --full           run all 8 config lines (default: a 5-line fast set)\n"
      "  --max-cycles N   per-simulation safety cap (default 300000; 0 = none);\n"
      "                   capped runs still diff bit-for-bit across modes\n"
      "  --out-dir DIR    where divergence repros go (default .; must exist)\n"
      "  --threads N      engine worker threads (default: hardware concurrency)\n"
      "  --list-profiles  list the generator profiles and exit\n"
      "  --help           this text\n"
      "\n"
      "Exit status: 0 = everything bit-identical, 1 = divergence, 2 = usage.\n");
}

std::uint64_t arg_u64(const std::string& flag, const std::string& value) {
  const auto v = parse_u64(value);  // common/parse.h: strict whole-string parse
  if (!v.has_value()) usage(flag + " expects a non-negative integer, got '" + value + "'");
  return *v;
}

/// The configuration lines a generated kernel is checked under. Labels are
/// line_label() plus the shared resource, so register- and scratchpad-sharing
/// lines with the same optimizations stay distinguishable.
std::vector<runner::ConfigVariant> config_lines(const KernelInfo& k, bool full) {
  std::vector<GpuConfig> cfgs;
  cfgs.push_back(configs::unshared(SchedulerKind::kLrr));
  cfgs.push_back(configs::unshared(SchedulerKind::kGto));
  if (full) cfgs.push_back(configs::unshared(SchedulerKind::kTwoLevel));
  cfgs.push_back(configs::shared_noopt(Resource::kRegisters));
  if (full) cfgs.push_back(configs::shared_unroll_dyn(Resource::kRegisters));
  cfgs.push_back(configs::shared_owf_unroll_dyn(Resource::kRegisters));
  if (k.resources.smem_per_block > 0) {
    cfgs.push_back(configs::shared_owf(Resource::kScratchpad));
    if (full) cfgs.push_back(configs::shared_noopt(Resource::kScratchpad));
  }
  std::vector<runner::ConfigVariant> out;
  out.reserve(cfgs.size());
  for (const GpuConfig& c : cfgs) {
    std::string label = c.line_label();
    if (c.sharing.enabled) label += std::string("[") + to_string(c.sharing.resource) + "]";
    out.push_back({std::move(label), c});
  }
  return out;
}

/// The grs_cli flags that reproduce one configuration line, so the repro
/// file's instructions are runnable as written.
std::string cli_flags(const GpuConfig& c) {
  std::string out = "--sched ";
  switch (c.scheduler) {
    case SchedulerKind::kLrr: out += "lrr"; break;
    case SchedulerKind::kGto: out += "gto"; break;
    case SchedulerKind::kTwoLevel: out += "twolevel"; break;
    case SchedulerKind::kOwf: out += "owf"; break;
  }
  if (c.sharing.enabled) {
    out += " --share ";
    out += c.sharing.resource == Resource::kScratchpad ? "scratchpad" : "registers";
    char t[32];
    std::snprintf(t, sizeof(t), " --t %g", c.sharing.threshold_t);
    out += t;
    if (c.sharing.unroll_registers) out += " --unroll";
    if (c.sharing.dynamic_warp_execution) out += " --dyn";
  }
  return out;
}

void write_repro(const std::string& out_dir, const KernelInfo& kernel, std::uint64_t seed,
                 const std::string& profile, const std::string& line, const GpuConfig& cfg) {
  const std::string path = out_dir + "/repro-" + kernel.name + ".gkd";
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "[grs_fuzz] cannot write repro %s\n", path.c_str());
    return;
  }
  f << "# grs_fuzz divergence repro: cycle vs event statistics differ\n"
    << "# profile " << profile << ", seed " << seed << ", config line " << line << "\n"
    << "# reproduce (diff the two outputs):\n"
    << "#   grs_cli --kernel " << path << " " << cli_flags(cfg) << " --exec-mode cycle\n"
    << "#   grs_cli --kernel " << path << " " << cli_flags(cfg) << " --exec-mode event\n"
    << workloads::gkd::serialize(kernel);
  std::fprintf(stderr, "[grs_fuzz] wrote repro %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 20, start = 0, max_cycles = 300000;
  std::string profile_name = "all", out_dir = ".";
  unsigned threads = 0;
  bool full = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--seeds") {
      seeds = arg_u64(a, next());
    } else if (a == "--start") {
      start = arg_u64(a, next());
    } else if (a == "--profile") {
      profile_name = next();
    } else if (a == "--threads") {
      threads = static_cast<unsigned>(arg_u64(a, next()));
    } else if (a == "--max-cycles") {
      max_cycles = arg_u64(a, next());
    } else if (a == "--out-dir") {
      out_dir = next();
    } else if (a == "--full") {
      full = true;
    } else if (a == "--help" || a == "-h") {
      print_help();
      return 0;
    } else if (a == "--list-profiles") {
      for (const auto& p : workloads::gen::all_profiles()) std::printf("%s\n", p.name.c_str());
      return 0;
    } else {
      usage("unknown flag " + a);
    }
  }

  std::vector<workloads::gen::GenProfile> profiles;
  try {
    if (profile_name == "all") {
      profiles = workloads::gen::all_profiles();
    } else {
      profiles.push_back(workloads::gen::profile_by_name(profile_name));
    }
  } catch (const std::exception& e) {
    usage(e.what());
  }

  std::size_t sims = 0, divergences = 0;
  for (std::uint64_t k = 0; k < seeds; ++k) {
    const std::uint64_t seed = start + k;
    const workloads::gen::GenProfile& profile = profiles[seed % profiles.size()];
    const KernelInfo kernel = workloads::gen::generate(profile, seed);

    const std::vector<runner::ConfigVariant> lines = config_lines(kernel, full);
    runner::SweepSpec spec;
    for (const runner::ConfigVariant& v : lines) {
      for (const ExecMode mode : {ExecMode::kCycle, ExecMode::kEvent}) {
        GpuConfig cfg = v.config;
        cfg.exec_mode = mode;
        cfg.max_cycles = max_cycles;
        spec.add(v.label + (mode == ExecMode::kCycle ? "|cycle" : "|event"), cfg, kernel);
      }
    }

    runner::RunOptions options;
    options.threads = threads;
    // The differential oracle must NEVER consult the result cache: a cached
    // result would be served to both execution modes (or replay an old run)
    // and mask exactly the cycle/event divergence this harness exists to
    // catch. Forced off here — grs_fuzz deliberately has no --cache flag —
    // and locked in by CacheTest.OffModeNeverConsultsTheStore.
    options.cache_dir.clear();
    options.cache_mode = cache::CacheMode::kOff;
    const std::vector<runner::SweepRow> rows = runner::run_sweep(spec, options);
    sims += rows.size();

    for (std::size_t j = 0; j + 1 < rows.size(); j += 2) {
      if (rows[j].result.stats != rows[j + 1].result.stats) {
        ++divergences;
        const std::string& line = lines[j / 2].label;
        std::fprintf(stderr,
                     "[grs_fuzz] DIVERGENCE: %s (profile %s, seed %llu) on %s: "
                     "cycle IPC %.4f vs event IPC %.4f\n",
                     kernel.name.c_str(), profile.name.c_str(),
                     static_cast<unsigned long long>(seed), line.c_str(),
                     rows[j].result.stats.ipc(), rows[j + 1].result.stats.ipc());
        write_repro(out_dir, kernel, seed, profile.name, line, lines[j / 2].config);
      }
    }
    if ((k + 1) % 10 == 0 || k + 1 == seeds) {
      std::fprintf(stderr, "[grs_fuzz] %llu/%llu seeds, %zu sims, %zu divergences\n",
                   static_cast<unsigned long long>(k + 1),
                   static_cast<unsigned long long>(seeds), sims, divergences);
    }
  }

  if (divergences != 0) {
    std::fprintf(stderr, "[grs_fuzz] FAIL: %zu divergent configuration lines\n", divergences);
    return 1;
  }
  std::printf("[grs_fuzz] OK: %llu seeds, %zu simulations, all cycle/event stats bit-identical\n",
              static_cast<unsigned long long>(seeds), sims);
  return 0;
}
