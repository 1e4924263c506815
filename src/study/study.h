// Sharing-study driver glue: the entry points behind `grs_bench study`, a
// registry build/present pair (bench/study.cc), so the study composes with
// --threads/--filter/--out/--cache like every other bench.
//
// The report directory defaults to docs/study (relative to the working
// directory — the repo root in the documented workflows); override with
// $GRS_STUDY_DIR. The corpus directory follows the corpus bench
// ($GRS_CORPUS_DIR, default examples/kernels).
#pragma once

#include <string>

#include "runner/registry.h"
#include "runner/sweep.h"

namespace grs::study {

/// $GRS_STUDY_DIR when set and non-empty, else "docs/study".
[[nodiscard]] std::string default_report_dir();

/// The full default-grid sweep (generated cells + corpus x both families).
[[nodiscard]] runner::SweepSpec build_study_spec();

/// Aggregate `view` against the default plan, write the report files into
/// `dir`, and print a one-screen summary (files written + headline) to
/// stdout. Throws std::runtime_error when the directory is unwritable.
void present_study(const runner::BenchView& view, const std::string& dir);

}  // namespace grs::study
