// A launchable kernel: program + execution configuration + resource demand.
#pragma once

#include <cstdint>
#include <string>

#include "core/occupancy.h"
#include "isa/program.h"

namespace grs {

struct KernelInfo {
  std::string name;
  KernelResources resources;    ///< block size, regs/thread, scratchpad/block
  std::uint32_t grid_blocks = 0;

  /// Average active lanes per warp (32 unless the kernel is modelled as
  /// divergent, e.g. MUM / BFS / b+tree: programs have no branches, so
  /// divergence only thins each issue; the `.gkd` `lanes` key,
  /// docs/gkd-format.md).
  std::uint32_t active_lanes = 32;

  Program program;

  /// Paper context: which benchmark suite and set the kernel comes from.
  std::string suite;
  std::string set;  ///< "set1" (register-limited), "set2" (scratchpad), "set3"

  void validate() const;
};

}  // namespace grs
