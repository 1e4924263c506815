// grs_bench — unified driver for every paper figure/table sweep.
//
//   grs_bench --list                     # registered benches + descriptions
//   grs_bench fig8 fig10                 # reproduce figures 8 and 10
//   grs_bench all --threads 8 --out results.csv
//   grs_bench table5_6 --filter hotspot  # one kernel's sharing sweep
//   grs_bench study                      # regenerate docs/study/
//
// `grs_bench --help` documents every flag (print_help() below is the single
// source of truth; scripts/check_docs.sh keeps the docs in sync with it).
//
// Paper tables go to stdout; progress/status go to stderr, so
// `grs_bench fig8 > fig8.txt` matches the output of the old serial driver
// byte for byte.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runner/cli_options.h"
#include "runner/registry.h"
#include "runner/sink.h"

using namespace grs;

namespace {

/// The shared flags this binary accepts (runner/cli_options.h).
constexpr runner::CommonFlagSet kFlags{/*filter=*/true, /*json=*/true};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n(grs_bench --help lists the flags; --list the benches)\n",
               msg.c_str());
  std::exit(2);
}

void print_help() {
  std::printf(
      "usage: grs_bench <bench...>|all [options]\n"
      "\n"
      "Reproduce any paper figure/table sweep (or the docs/study sharing study)\n"
      "through the parallel experiment engine. Paper tables go to stdout,\n"
      "progress to stderr.\n"
      "\n"
      "  <bench...>|all    benches to run (see --list)\n"
      "  --list            list registered benches with descriptions and exit\n"
      "%s"
      "  --table           also print the generic per-sweep console table\n"
      "  --quiet           skip the paper-shaped presenters (sinks still run;\n"
      "                    note: the study bench writes its reports from its\n"
      "                    presenter, so --quiet skips those files too)\n"
      "  --help            this text\n"
      "\n"
      "The study bench writes docs/study/ reports; override the directory with\n"
      "GRS_STUDY_DIR. The corpus bench reads examples/kernels/; override with\n"
      "GRS_CORPUS_DIR.\n",
      runner::common_options_help(kFlags).c_str());
}

void list_benches() {
  for (const runner::BenchDef* b : runner::all_benches())
    std::printf("%-14s %s\n", b->name.c_str(), b->title.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> selected;
  runner::CommonOptions opts;
  bool table = false, quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage("missing value for " + a);
        return argv[++i];
      };
      if (parse_common_flag(opts, kFlags, a, next)) {
        continue;
      } else if (a == "--help" || a == "-h") {
        print_help();
        return 0;
      } else if (a == "--list") {
        list_benches();
        return 0;
      } else if (a == "--table") {
        table = true;
      } else if (a == "--quiet") {
        quiet = true;
      } else if (!a.empty() && a[0] == '-') {
        usage("unknown flag " + a);
      } else {
        selected.push_back(a);
      }
    }
    opts.finalize();
  } catch (const runner::UsageError& e) {
    usage(e.what());
  }

  std::vector<const runner::BenchDef*> to_run;
  if (selected.empty()) usage("no bench selected; use --list or 'all'");
  if (selected.size() == 1 && selected[0] == "all") {
    to_run = runner::all_benches();
  } else {
    for (const std::string& name : selected) {
      if (name == "all") usage("'all' cannot be combined with bench names");
      const runner::BenchDef* b = runner::find_bench(name);
      if (b == nullptr) usage("unknown bench '" + name + "'");
      // Dedupe: a bench named twice would write duplicate sink rows.
      if (std::find(to_run.begin(), to_run.end(), b) == to_run.end()) to_run.push_back(b);
    }
  }

  // Per-point trace/timeline files are derived from one base path; with
  // several benches the later ones would silently overwrite the earlier.
  if (opts.obs_enabled() && to_run.size() > 1)
    usage("--trace/--timeline apply to a single bench (got " +
          std::to_string(to_run.size()) + "); run benches separately");

  std::ofstream csv_file, json_file;
  std::vector<std::unique_ptr<runner::ResultSink>> sinks;
  if (!opts.out_csv.empty()) {
    csv_file.open(opts.out_csv);
    if (!csv_file) usage("cannot open " + opts.out_csv);
    sinks.push_back(std::make_unique<runner::CsvSink>(csv_file));
  }
  if (!opts.out_json.empty()) {
    json_file.open(opts.out_json);
    if (!json_file) usage("cannot open " + opts.out_json);
    sinks.push_back(std::make_unique<runner::JsonSink>(json_file));
  }
  if (table) sinks.push_back(std::make_unique<runner::ConsoleTableSink>());

  runner::CliSession session("grs_bench", opts);
  for (auto& s : sinks) s->begin();
  for (const runner::BenchDef* b : to_run) {
    double secs = 0.0;
    std::vector<runner::SweepRow> rows;
    try {
      runner::SweepSpec spec = b->build();
      spec.filter_kernels(opts.filter);
      rows = session.run(b->name, std::move(spec), &secs);
    } catch (const std::exception& e) {
      // An unreadable kernel corpus (the corpus and study benches' build()),
      // a cache-verify stats difference or a cache/obs I/O failure is a
      // hard, diagnosed failure, not a crash. The session's tail still
      // reports what the run counted (its verify failures among them).
      std::fprintf(stderr, "error: %s bench: %s\n", b->name.c_str(), e.what());
      for (auto& s : sinks) s->end();
      (void)session.finish();
      return 2;
    }
    std::fprintf(stderr, "[grs_bench] %s: %zu points in %.2fs\n", b->name.c_str(),
                 rows.size(), secs);

    for (const runner::SweepRow& row : rows)
      for (auto& s : sinks) s->add(b->name, row);
    // Presenters may do I/O (the study writes its report files): fail with a
    // diagnostic exit like every other error path, not std::terminate —
    // after finalizing the sinks so --out/--json files stay well-formed
    // (every collected row is already in them).
    try {
      if (!quiet && b->present) b->present(runner::BenchView(rows));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s bench: %s\n", b->name.c_str(), e.what());
      for (auto& s : sinks) s->end();
      (void)session.finish();
      return 2;
    }
  }
  for (auto& s : sinks) s->end();
  return session.finish();
}
