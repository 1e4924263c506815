// Whole-GPU model: SMs + shared L2/DRAM + Dyn controller, and the one loop
// that runs them in either exec mode.
//
// run() hands out the thread blocks itself. The initial fill goes
// round-robin over the SMs, so early block ids spread across the GPU as
// hardware does, and each SM's block-finish callback refills the freed slot
// while blocks remain. The slot layout (unshared slots first, then pair
// sides) is fixed by the Occupancy plan; a refilled pair slot joins as the
// non-owner side, because the SM keeps ownership with the surviving partner
// (paper §IV-A: "a new non-owner thread block gets launched").
//
// Each cycle the loop ticks every SM. An event-mode SM sleeps through its
// own provably-idle windows, and when no SM issued the clock jumps to the
// earliest window's end; a cycle-mode SM never opens a window, so its
// idle_until() stays 0 and the clock steps by one. Counters are read as of a
// cycle (StreamingMultiprocessor::stats(c)), so the result, the Dyn monitor
// and the timeline see the same values in both modes.
//
// One deadlock rule covers both modes: when no SM issued and every SM is
// stuck() (no pending writeback or L1 fill, and no warp at a Dyn gate that
// could issue if the gate reopened), no warp can ever issue again, and
// unless cfg.max_cycles caps the run the loop aborts with "deadlock at
// cycle N". With Dyn on, the loop asks only at monitoring boundaries, where
// every SM steps in both modes, so both modes abort at the same boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "core/dyn_throttle.h"
#include "core/occupancy.h"
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
  /// The SMs hold the Gpu's address (block refills, memory system, Dyn).
  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  /// Run the grid to completion (or cfg.max_cycles); returns aggregate stats.
  [[nodiscard]] GpuStats run();

 private:
  [[nodiscard]] bool done() const;
  /// Counter/gauge snapshot for timeline boundary `b` (see obs/timeline.h).
  void take_timeline_sample(Cycle b);

  GpuConfig cfg_;
  Occupancy occupancy_;
  MemorySystem memsys_;
  DynThrottle dyn_;
  std::vector<StreamingMultiprocessor> sms_;
  obs::SimObserver* obs_ = nullptr;
  std::string kernel_name_;
  std::uint64_t grid_blocks_ = 0;
  std::uint64_t next_block_ = 0;  ///< id of the next block to hand out
};

}  // namespace grs
