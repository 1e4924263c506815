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
namespace prof {
class HostProfiler;
}

struct SimResult {
  GpuStats stats;
  Occupancy occupancy;
  GpuConfig config;
};

/// Run `kernel` under `cfg`. `obs` (may be null) collects trace events and/or
/// timeline samples, `prof` (may be null) host-phase timings, for this one
/// simulation (src/obs, src/prof). The returned SimResult is bit-identical
/// with or without them — observability never feeds back into the machine.
[[nodiscard]] SimResult simulate(const GpuConfig& cfg, const KernelInfo& kernel,
                                 obs::SimObserver* obs = nullptr,
                                 prof::HostProfiler* prof = nullptr);

}  // namespace grs
