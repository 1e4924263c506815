#include "gpu/simulator.h"

#include "gpu/gpu.h"
#include "isa/reorder.h"
#include "obs/obs.h"
#include "prof/prof.h"

namespace grs {

SimResult simulate(const GpuConfig& cfg, const KernelInfo& kernel, obs::SimObserver* obs) {
  // Root of every profiled sim stack; the nested phases live in sm/memsys.
  prof::ScopedPhase prof_scope(obs::profiler(obs), prof::Phase::kSimulate);
  cfg.validate();
  kernel.validate();

  Program program = kernel.program;
  if (cfg.sharing.enabled && cfg.sharing.unroll_registers &&
      cfg.sharing.resource == Resource::kRegisters) {
    program = reorder_registers_by_first_use(program);
  }

  Gpu gpu(cfg, kernel, program, obs);
  SimResult r;
  r.stats = gpu.run();
  r.occupancy = gpu.occupancy();
  r.config = cfg;
  return r;
}

}  // namespace grs
