// Sharing-study sweep planner: the parametric grid of generated kernels
// (workloads::gen::study_profile over four axes) plus the saved .gkd corpus,
// crossed with the paper's sharing lines at every sharing percentage.
//
// The plan is pure and deterministic: build_plan(grid, dir) always produces
// the same cells in the same order, so the driver can rebuild it after the
// sweep to map results (keyed by variant label x kernel name) back to axis
// coordinates. Two sharing "families" are planned, mirroring Tables V-VIII:
//
//   registers  — configs::shared_owf_unroll_dyn(kRegisters, t), every kernel
//   scratchpad — configs::shared_owf(kScratchpad, t), kernels with smem > 0
//
// with t = 1 - percent/100, so the 0% variant of each family is the paper's
// 0%-sharing baseline column.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "runner/sweep.h"
#include "workloads/gen/profile.h"
#include "workloads/kernel_info.h"

namespace grs::study {

/// The level sets of the four study axes, the sharing-percent grid, and the
/// generator seed. default_grid() is the committed docs/study configuration;
/// tests shrink it to a few cells.
struct StudyGrid {
  std::vector<std::uint32_t> regs;       ///< registers per thread
  std::vector<std::uint32_t> staging;    ///< scratchpad tile bytes per block
  std::vector<std::uint32_t> memory;     ///< mem_intensity levels (0..2)
  std::vector<std::uint32_t> lanes;      ///< active lanes per warp
  std::vector<double> percents;          ///< sharing percentages, ascending
  std::uint64_t seed = 1;                ///< generator seed for every cell

  /// Number of generated cells (cross product of the four level sets).
  [[nodiscard]] std::size_t cell_count() const {
    return regs.size() * staging.size() * memory.size() * lanes.size();
  }
};

/// The committed-study grid: 4 x 3 x 3 x 3 = 108 cells spanning not-limited
/// to severely-limited pressure on both resources, the paper's six sharing
/// percentages (Tables V-VIII), seed 1.
[[nodiscard]] StudyGrid default_grid();

/// Human-readable names of the memory-intensity levels ("light" ...).
[[nodiscard]] const char* memory_level_name(std::uint32_t intensity);

/// One generated grid cell: its coordinates and the kernel they produce.
struct StudyCell {
  workloads::gen::StudyAxes axes;
  KernelInfo kernel;
};

struct StudyPlan {
  StudyGrid grid;
  std::vector<StudyCell> cells;    ///< lanes innermost, regs outermost
  std::vector<KernelInfo> corpus;  ///< saved .gkd kernels (may be empty)
};

/// Generate every cell kernel and load the corpus. `corpus_dir` empty skips
/// the corpus entirely (unit tests); one that cannot be read throws
/// (runner::load_kernel_dir).
[[nodiscard]] StudyPlan build_plan(const StudyGrid& grid, const std::string& corpus_dir);

/// Variant label of one (family, percent) line, e.g. "reg 90%" / "smem 0%".
[[nodiscard]] std::string variant_label(Resource resource, double percent);

/// The family's config at one sharing percentage (t = 1 - percent/100).
[[nodiscard]] GpuConfig family_config(Resource resource, double percent);

/// The full sweep: for every kernel (cells then corpus), the register family
/// at every percent, then — for kernels that declare scratchpad — the
/// scratchpad family at every percent.
[[nodiscard]] runner::SweepSpec to_sweep_spec(const StudyPlan& plan);

}  // namespace grs::study
