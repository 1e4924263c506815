#include "gpu/simulator.h"

#include <string>

#include "common/check.h"
#include "common/format.h"
#include "gpu/gpu.h"
#include "isa/reorder.h"
#include "obs/obs.h"
#include "prof/prof.h"

namespace grs {

GpuConfig machine_config(const GpuConfig& cfg) {
  GpuConfig m = cfg;
  m.sharing.threshold_t = 1.0;
  return m;
}

SimResult simulate(const GpuConfig& cfg, const KernelInfo& kernel, obs::SimObserver* obs) {
  // Root of every profiled sim stack; the nested phases live in sm/memsys.
  prof::ScopedPhase prof_scope(obs::profiler(obs), prof::Phase::kSimulate);
  cfg.validate();
  kernel.validate();
  // The SM's MSHR pre-check holds a load until all its transactions fit, so
  // a load wider than the whole L1 MSHR could never issue.
  const std::uint32_t widest = kernel.program.max_load_transactions();
  GRS_CHECK_MSG(widest <= cfg.l1.mshr_entries,
                ("kernel '" + kernel.name + "': a global load of " + std::to_string(widest) +
                 " transactions can never fit l1.mshr_entries " +
                 std::to_string(cfg.l1.mshr_entries))
                    .c_str());

  Program program = kernel.program;
  if (cfg.sharing.enabled && cfg.sharing.unroll_registers &&
      cfg.sharing.resource == Resource::kRegisters) {
    program = reorder_registers_by_first_use(program);
  }

  SimResult r;
  r.occupancy = compute_occupancy(cfg, kernel.resources);
  r.config = cfg;
  Gpu gpu(machine_config(cfg), r.occupancy, kernel, program, obs);
  r.stats = gpu.run();
  return r;
}

std::string check_conservation(const GpuConfig& cfg, const KernelInfo& kernel,
                               const GpuStats& stats) {
  std::string broken;
  const auto law = [&broken](const char* what, std::uint64_t lhs, std::uint64_t rhs) {
    if (lhs == rhs) return;
    if (!broken.empty()) broken += "; ";
    broken += what;
    broken += ": ";
    append_u64(broken, lhs);
    broken += " != ";
    append_u64(broken, rhs);
  };
  law("issued + stall + idle != cycles x SMs x schedulers", stats.sm_total.scheduler_cycles(),
      stats.cycles * cfg.num_sms * cfg.num_schedulers);
  const bool cut = cfg.max_cycles != 0 && stats.cycles >= cfg.max_cycles;
  if (!cut) {
    law("blocks finished != grid blocks", stats.sm_total.blocks_finished, kernel.grid_blocks);
  }
  return broken;
}

}  // namespace grs
