// Public entry point: run one kernel under one configuration.
//
//   GpuConfig cfg = configs::shared_owf_unroll_dyn(Resource::kRegisters);
//   SimResult r = simulate(cfg, workloads::hotspot());
//   std::cout << r.stats.ipc();
//
// Applies the unroll/reorder register pass when the config asks for it
// (paper §IV-B is a compile-time transformation, so it lives here, not in
// the SM).
#pragma once

#include "common/config.h"
#include "common/stats.h"
#include "core/occupancy.h"
#include "workloads/kernel_info.h"

namespace grs {

namespace obs {
class SimObserver;
}

struct SimResult {
  GpuStats stats;
  Occupancy occupancy;
  GpuConfig config;
};

/// Run `kernel` under `cfg`. `obs` (may be null) is the one instrumentation
/// pointer of this simulation (src/obs): its trace and timeline pillars
/// collect events and samples, and its third pillar, the host-phase profiler
/// (src/prof), times the hot phases. The returned SimResult is bit-identical
/// with or without it — instrumentation never feeds back into the machine.
[[nodiscard]] SimResult simulate(const GpuConfig& cfg, const KernelInfo& kernel,
                                 obs::SimObserver* obs = nullptr);

}  // namespace grs
