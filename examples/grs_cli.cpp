// grs_cli — run any paper kernel under any configuration from the command
// line; the Swiss-army knife for exploring the simulator.
//
//   grs_cli --kernel hotspot --share registers --t 0.1 --sched owf
//           [--unroll] [--dyn] [--grid N] [--compare]
//   grs_cli --sweep [--threads N] [--out results.csv]   # all kernels, one line
//   grs_cli --kernel trace:dump.csv --dump kernel.gkd   # trace -> .gkd
//   grs_cli --validate kernel.gkd                       # lint, exit 2 on problems
//
// `grs_cli --help` documents every flag (print_help() below is the single
// source of truth; scripts/check_docs.sh keeps the docs in sync with it).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/parse.h"
#include "gpu/simulator.h"
#include "runner/cli_options.h"
#include "runner/engine.h"
#include "runner/kernel_source.h"
#include "runner/sink.h"
#include "workloads/format/gkd.h"
#include "workloads/gen/generator.h"
#include "workloads/suites.h"
#include "workloads/validate.h"

using namespace grs;

namespace {

/// The shared flags this binary accepts (runner/cli_options.h).
constexpr runner::CommonFlagSet kFlags{/*filter=*/false, /*json=*/false};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n(grs_cli --help lists the flags)\n", msg.c_str());
  std::exit(2);
}

void print_help() {
  std::printf(
      "usage: grs_cli [options]\n"
      "\n"
      "Run one kernel under one configuration; the Swiss-army knife for\n"
      "exploring the simulator (docs/architecture.md maps the pieces).\n"
      "\n"
      "Kernel selection:\n"
      "  --kernel SPEC     built-in name (default hotspot; --list), a .gkd file\n"
      "                    path (contains '/' or ends in .gkd), gen:<profile>:<seed>\n"
      "                    (--list-profiles), or trace:<file> to import an\n"
      "                    address trace (CSV or memory log)\n"
      "\n"
      "Actions:\n"
      "  --dump FILE       write the resolved kernel as .gkd and exit\n"
      "  --validate FILE   lint FILE as .gkd against the configured GPU;\n"
      "                    file:line diagnostics, exit 2 on problems\n"
      "  --sweep           run the configured line over all built-in kernels\n"
      "                    in parallel (--threads N, --out results.csv)\n"
      "  --list            list built-in kernels and exit\n"
      "  --list-profiles   list generator profiles and exit\n"
      "  --help            this text\n"
      "\n"
      "Configuration:\n"
      "  --share RES       registers | scratchpad | none      (default none)\n"
      "  --t X             sharing threshold in [0.001, 1]    (default 0.1)\n"
      "  --sched S         lrr | gto | twolevel | owf         (default lrr)\n"
      "  --unroll          register-declaration reordering\n"
      "  --dyn             dynamic warp execution\n"
      "  --grid N          override grid size (>= 1)\n"
      "  --compare         also run Unshared-LRR and print the delta\n"
      "%s",
      runner::common_options_help(kFlags).c_str());
}

SchedulerKind parse_sched(const std::string& s) {
  if (s == "lrr") return SchedulerKind::kLrr;
  if (s == "gto") return SchedulerKind::kGto;
  if (s == "twolevel") return SchedulerKind::kTwoLevel;
  if (s == "owf") return SchedulerKind::kOwf;
  usage("unknown scheduler");
}

/// Strict numeric parsing (common/parse.h): the whole argument must be a
/// number in range — no silent atoi()-style "garbage reads as 0".
std::uint32_t arg_u32(const std::string& flag, const std::string& value) {
  const auto v = parse_u32(value);
  if (!v.has_value()) usage(flag + " expects a non-negative integer, got '" + value + "'");
  return *v;
}

double arg_double(const std::string& flag, const std::string& value) {
  const auto v = parse_finite_double(value);
  if (!v.has_value()) usage(flag + " expects a number, got '" + value + "'");
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string kernel_spec = "hotspot";
  std::string share = "none";
  std::string dump_file;
  double t = 0.1;
  SchedulerKind sched = SchedulerKind::kLrr;
  bool unroll = false, dyn = false, compare = false, sweep = false, kernel_set = false;
  std::string validate_file;
  std::uint32_t grid = 0;
  runner::CommonOptions opts;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage("missing value for " + a);
        return argv[++i];
      };
      if (parse_common_flag(opts, kFlags, a, next)) {
        continue;
      } else if (a == "--kernel") {
        kernel_spec = next();
        kernel_set = true;
      } else if (a == "--validate") {
        validate_file = next();
      } else if (a == "--dump") {
        dump_file = next();
      } else if (a == "--share") {
        share = next();
      } else if (a == "--t") {
        t = arg_double(a, next());
        if (!(t >= 0.001 && t <= 1.0)) usage("--t must be in [0.001, 1]");
      } else if (a == "--sched") {
        sched = parse_sched(next());
      } else if (a == "--unroll") {
        unroll = true;
      } else if (a == "--dyn") {
        dyn = true;
      } else if (a == "--grid") {
        grid = arg_u32(a, next());
        if (grid == 0) usage("--grid must be >= 1");
      } else if (a == "--compare") {
        compare = true;
      } else if (a == "--sweep") {
        sweep = true;
      } else if (a == "--help" || a == "-h") {
        print_help();
        return 0;
      } else if (a == "--list") {
        for (const auto& n : workloads::all_names()) std::printf("%s\n", n.c_str());
        return 0;
      } else if (a == "--list-profiles") {
        for (const auto& p : workloads::gen::all_profiles())
          std::printf("%s\n", p.name.c_str());
        return 0;
      } else {
        usage("unknown flag " + a);
      }
    }
    opts.finalize();
  } catch (const runner::UsageError& e) {
    usage(e.what());
  }
  if (!opts.out_csv.empty() && !sweep) usage("--out writes the --sweep rows; it needs --sweep");

  GpuConfig cfg = configs::unshared(sched);
  if (share != "none") {
    cfg.sharing.enabled = true;
    cfg.sharing.resource =
        share == "scratchpad" ? Resource::kScratchpad : Resource::kRegisters;
    if (share != "registers" && share != "scratchpad") usage("bad --share");
    cfg.sharing.threshold_t = t;
    cfg.sharing.unroll_registers = unroll;
    cfg.sharing.dynamic_warp_execution = dyn;
  }
  cfg.validate();

  if (!validate_file.empty()) {
    if (kernel_set || sweep || compare || !dump_file.empty())
      usage("--validate lints one file; --kernel/--dump/--sweep/--compare do not apply");
    const std::vector<std::string> diags = workloads::lint_gkd_file(validate_file, cfg);
    for (const std::string& d : diags) std::fprintf(stderr, "%s\n", d.c_str());
    if (!diags.empty()) {
      std::fprintf(stderr, "error: %zu problem(s) in %s\n", diags.size(),
                   validate_file.c_str());
      return 2;
    }
    std::printf("OK: %s lints clean against %s\n", validate_file.c_str(),
                cfg.line_label().c_str());
    return 0;
  }

  KernelInfo kernel;
  try {
    kernel = runner::resolve_kernel(kernel_spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (grid != 0) kernel.grid_blocks = grid;

  if (!dump_file.empty()) {
    try {
      workloads::gkd::dump_file(kernel, dump_file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    std::printf("wrote %s (%zu static instructions) to %s\n", kernel.name.c_str(),
                kernel.program.static_length(), dump_file.c_str());
    return 0;
  }

  // A .gkd file can describe a kernel simulate() refuses (the SM cannot host
  // its block, or a load can never fit the L1 MSHR); report every reason as
  // a clean error rather than abort.
  const std::vector<Refusal> refused = refusals(cfg, kernel);
  for (const Refusal& r : refused)
    std::fprintf(stderr, "error: kernel '%s': a %s\n", kernel.name.c_str(), r.reason.c_str());
  if (!refused.empty()) return 2;

  runner::CliSession session("grs_cli", opts);

  if (sweep) {
    if (kernel_set || grid != 0 || compare)
      usage("--sweep runs every kernel; --kernel/--grid/--compare do not apply");
    runner::SweepSpec spec;
    for (const auto& name : workloads::all_names())
      spec.add(cfg.line_label(), cfg, workloads::by_name(name));

    std::vector<runner::SweepRow> rows;
    try {
      rows = session.run("sweep", std::move(spec));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      (void)session.finish();
      return 2;
    }

    runner::ConsoleTableSink console;
    console.begin();
    for (const auto& row : rows) console.add(cfg.line_label(), row);
    console.end();

    if (!opts.out_csv.empty()) {
      std::ofstream f(opts.out_csv);
      if (!f) usage("cannot open " + opts.out_csv);
      runner::CsvSink csv(f);
      csv.begin();
      for (const auto& row : rows) csv.add(cfg.line_label(), row);
      csv.end();
      std::printf("wrote %zu rows to %s\n", rows.size(), opts.out_csv.c_str());
    }
    return session.finish();
  }

  // The two --compare runs would write to the same --trace/--timeline paths,
  // the second silently clobbering the first.
  if (compare && opts.obs_enabled())
    usage("--compare with --trace/--timeline would overwrite the first run's files; "
          "trace the two configurations separately");

  // Single runs go through the engine too, so --cache and the observability
  // flags apply to the interactive dev loop exactly as they do to sweeps.
  auto run_one = [&](const GpuConfig& c) -> SimResult {
    runner::SweepSpec spec;
    spec.add(c.line_label(), c, kernel);
    return session.run(c.line_label(), std::move(spec))[0].result;
  };

  try {
    const SimResult r = run_one(cfg);
    std::printf("%s on %s (%u blocks of %u threads)\n", cfg.line_label().c_str(),
                kernel.name.c_str(), kernel.grid_blocks,
                kernel.resources.threads_per_block);
    std::printf("%s\n", r.stats.summary().c_str());
    std::printf("occupancy: %u blocks/SM (baseline %u, limiter %s, U=%u, S=%u)\n",
                r.occupancy.total_blocks, r.occupancy.baseline_blocks,
                to_string(r.occupancy.limiter), r.occupancy.unshared_blocks,
                r.occupancy.shared_pairs);

    if (compare) {
      const SimResult base = run_one(configs::unshared());
      std::printf("\nvs Unshared-LRR: IPC %.2f -> %.2f (%+.2f%%)\n", base.stats.ipc(),
                  r.stats.ipc(), percent_improvement(base.stats.ipc(), r.stats.ipc()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    (void)session.finish();
    return 2;
  }
  return session.finish();
}
