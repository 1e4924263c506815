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
  const std::vector<Refusal> refused = refusals(cfg, kernel);
  GRS_CHECK_MSG(refused.empty(),
                ("kernel '" + kernel.name + "': a " + refused.front().reason).c_str());

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

std::vector<Refusal> refusals(const GpuConfig& cfg, const KernelInfo& kernel) {
  std::vector<Refusal> out;
  const auto over = [&out](Resource limit, std::uint32_t need, std::uint32_t have,
                           const char* what) {
    if (need > have) {
      out.push_back({limit, std::nullopt,
                     "block needs " + std::to_string(need) + what + std::to_string(have)});
    }
  };
  const KernelResources& res = kernel.resources;
  over(Resource::kThreads, res.warps_per_block(cfg.warp_size), cfg.max_warps_per_sm(),
       " warps but the SM hosts at most ");
  over(Resource::kRegisters, res.regs_per_block(), cfg.registers_per_sm,
       " registers but the SM has ");
  over(Resource::kScratchpad, res.smem_per_block, cfg.scratchpad_per_sm,
       " scratchpad bytes but the SM has ");
  over(Resource::kBlocks, 1, cfg.max_blocks_per_sm, " block slot but the SM has ");

  std::size_t index = 0;
  for (const Segment& s : kernel.program.segments()) {
    for (const Instruction& i : s.instrs) {
      if (i.op == Op::kLdGlobal && i.max_transactions() > cfg.l1.mshr_entries) {
        out.push_back({std::nullopt, index,
                       "global load of " + std::to_string(i.max_transactions()) +
                           " transactions can never fit l1.mshr_entries " +
                           std::to_string(cfg.l1.mshr_entries)});
      }
      ++index;
    }
  }
  return out;
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
  law("issued cycles != warp instructions", stats.sm_total.issued_cycles,
      stats.sm_total.warp_instructions);
  const bool cut = cfg.max_cycles != 0 && stats.cycles >= cfg.max_cycles;
  if (!cut) {
    law("blocks finished != grid blocks", stats.sm_total.blocks_finished, kernel.grid_blocks);
  }
  return broken;
}

}  // namespace grs
