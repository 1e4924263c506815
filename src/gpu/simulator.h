// Public entry point: run one kernel under one configuration.
//
//   GpuConfig cfg = configs::shared_owf_unroll_dyn(Resource::kRegisters);
//   SimResult r = simulate(cfg, workloads::hotspot());
//   std::cout << r.stats.ipc();
//
// Applies the unroll/reorder register pass when the config asks for it
// (paper §IV-B is a compile-time transformation, so it lives here, not in
// the SM), and resolves the launch plan (core/occupancy.h) once: the sharing
// threshold t reaches the machine only through the resolved Occupancy.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

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

/// `cfg` with sharing.threshold_t pinned to 1.0: the config simulate() builds
/// the machine from. Beside the resolved Occupancy, it is all the machine
/// sees, so no code inside the machine can read t, and two configs that
/// differ only in t and resolve to the same plan simulate bit-identically
/// (one cache::result_cache_key, which the sweep engine groups points by).
[[nodiscard]] GpuConfig machine_config(const GpuConfig& cfg);

/// Run `kernel` under `cfg`. The machine is built from machine_config(cfg)
/// and compute_occupancy(cfg, kernel.resources); t acts only through that
/// plan (paper Eq. 1-4 and the private/shared split of §III). A kernel that
/// refusals(cfg, kernel) refuses aborts before simulating, like an invalid
/// cfg, with "kernel '<name>': a <reason>" for the first reason.
///
/// `obs` (may be null) is the one instrumentation pointer of this simulation
/// (src/obs): its trace and timeline pillars collect events and samples, and
/// its third pillar, the host-phase profiler (src/prof), times the hot
/// phases. The returned SimResult is bit-identical with or without it —
/// instrumentation never feeds back into the machine.
[[nodiscard]] SimResult simulate(const GpuConfig& cfg, const KernelInfo& kernel,
                                 obs::SimObserver* obs = nullptr);

/// One reason simulate() cannot run a kernel under a config.
struct Refusal {
  /// Set when a block breaks one of the SM's limits: kThreads (its warps),
  /// kRegisters or kScratchpad; kBlocks when the config admits no block.
  std::optional<Resource> limit;
  /// Set when a global load is wider than l1.mshr_entries: its program-order
  /// index (segments in order, then instructions).
  std::optional<std::size_t> instruction;
  /// E.g. "block needs 40960 registers but the SM has 32768".
  std::string reason;
};

/// Every reason simulate(cfg, kernel) cannot run `kernel`: the broken
/// limits first, then the too-wide loads in program order; empty when it
/// can run. Launch (paper §II, §III-C) needs one block to fit the SM's
/// warps, registers and scratchpad, and sharing changes how many blocks
/// launch, never whether one fits. A load issues only once all its
/// transactions fit the L1 MSHR at once (stores bypass it), so one wider
/// than the whole MSHR never issues. grs_cli, the .gkd lint and the corpus
/// loader report these instead of letting simulate() abort.
[[nodiscard]] std::vector<Refusal> refusals(const GpuConfig& cfg, const KernelInfo& kernel);

/// The conservation laws every result of simulate(cfg, kernel) must keep:
///   - each scheduler classifies each cycle exactly once: issued + stall +
///     idle == cycles x num_sms x num_schedulers;
///   - each issue is one issued scheduler-cycle: issued == warp
///     instructions;
///   - a run that cfg.max_cycles did not cut finishes every block of its
///     grid.
/// Returns "" when all hold, else each broken law with its two sides.
/// grs_fuzz fails a simulation that breaks one like a divergence, and
/// tests/test_equivalence.cc checks every line. The L1/L2/DRAM traffic
/// laws do not hold yet (ROADMAP "Counts that balance") and join with the
/// fix that makes them hold.
[[nodiscard]] std::string check_conservation(const GpuConfig& cfg, const KernelInfo& kernel,
                                             const GpuStats& stats);

}  // namespace grs
