// Whole-GPU model: SMs + shared L2/DRAM + dispatcher + Dyn controller.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "core/dyn_throttle.h"
#include "core/occupancy.h"
#include "gpu/dispatcher.h"
#include "memory/memsys.h"
#include "obs/obs.h"
#include "sm/sm.h"
#include "workloads/kernel_info.h"

namespace grs {

class Gpu {
 public:
  /// `cfg` is simulate()'s machine_config(), whose sharing threshold is
  /// pinned to 1.0, and `occupancy` the launch plan simulate() resolved from
  /// the caller's config: the machine never computes a plan or reads t.
  /// `program` must outlive the Gpu (simulate() owns the possibly-reordered
  /// copy). `kernel.program` is ignored here.
  /// `obs` (optional, must outlive the Gpu) turns on whichever pillars it
  /// carries: trace hooks throughout the machine, timeline sampling in run(),
  /// host-phase timing. None ever changes GpuStats — the run is bit-identical
  /// either way (tests/test_obs.cc, tests/test_prof.cc).
  Gpu(const GpuConfig& cfg, const Occupancy& occupancy, const KernelInfo& kernel,
      const Program& program, obs::SimObserver* obs = nullptr);

  /// Run the grid to completion (or cfg.max_cycles); returns aggregate stats.
  [[nodiscard]] GpuStats run();

  [[nodiscard]] const std::vector<StreamingMultiprocessor>& sms() const { return sms_; }

 private:
  [[nodiscard]] bool done() const;
  /// Counter/gauge snapshot for timeline boundary `b` (see obs/timeline.h).
  void take_timeline_sample(Cycle b);

  GpuConfig cfg_;
  Occupancy occupancy_;
  MemorySystem memsys_;
  DynThrottle dyn_;
  std::vector<StreamingMultiprocessor> sms_;
  std::unique_ptr<Dispatcher> dispatcher_;
  obs::SimObserver* obs_ = nullptr;
  std::string kernel_name_;
  std::uint64_t grid_blocks_ = 0;
};

}  // namespace grs
