#include "study/study.h"

#include <cstdio>
#include <cstdlib>

#include "runner/kernel_source.h"
#include "study/aggregate.h"
#include "study/report.h"

namespace grs::study {

namespace {

StudyPlan default_plan() { return build_plan(default_grid(), runner::default_corpus_dir()); }

}  // namespace

std::string default_report_dir() {
  const char* env = std::getenv("GRS_STUDY_DIR");
  return env != nullptr && *env != '\0' ? env : "docs/study";
}

runner::SweepSpec build_study_spec() { return to_sweep_spec(default_plan()); }

void present_study(const runner::BenchView& view, const std::string& dir) {
  // Rebuild the (deterministic) plan to map results back to axis coordinates;
  // generating the cells again costs milliseconds next to the sweep itself.
  const StudyPlan plan = default_plan();
  const StudyAggregation agg = aggregate(plan, view);

  const std::size_t skipped = agg.registers.skipped + agg.scratchpad.skipped;
  std::printf("study: %zu register-family series, %zu scratchpad-family series",
              agg.registers.cells.size() + agg.registers.corpus.size(),
              agg.scratchpad.cells.size() + agg.scratchpad.corpus.size());
  if (skipped > 0) std::printf(" (%zu incomplete)", skipped);
  std::printf("\n");

  // Only a complete sweep may touch the report directory: a --filter run
  // would otherwise silently overwrite the committed, CI-locked docs/study
  // pages with incomplete ones.
  if (skipped > 0) {
    std::printf("study: filtered run — reports NOT written to %s\n", dir.c_str());
    return;
  }
  const std::vector<std::string> written = write_reports(agg, dir);
  for (const std::string& name : written)
    std::printf("study: wrote %s/%s\n", dir.c_str(), name.c_str());
}

}  // namespace grs::study
