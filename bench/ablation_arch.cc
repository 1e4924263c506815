// Architecture ablations: how the headline result (hotspot + lavaMD at 90%
// sharing) depends on the micro-architectural knobs that stand in for
// GPGPU-Sim detail (L1 MSHRs, the DRAM row window, the LSU queue) and on the
// Dyn period and step the paper fixes.
// Not a paper figure — this quantifies the sensitivity of the reproduction.
#include <string>
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "runner/registry.h"
#include "workloads/suites.h"

namespace grs {
namespace {

struct Tweak {
  const char* label;
  void (*apply)(GpuConfig&);
};

struct Group {
  const char* key;  ///< variant-label prefix, must be unique across groups
  const char* caption;
  std::vector<Tweak> tweaks;
};

const std::vector<Group>& groups() {
  static const std::vector<Group> gs = {
      {"mshr",
       "Ablation: L1 MSHR entries (memory-level parallelism ceiling)",
       {{"16", [](GpuConfig& c) { c.l1.mshr_entries = 16; }},
        {"32", [](GpuConfig& c) { c.l1.mshr_entries = 32; }},
        {"64 (default)", [](GpuConfig& c) { c.l1.mshr_entries = 64; }},
        {"128", [](GpuConfig& c) { c.l1.mshr_entries = 128; }}}},
      {"row_window",
       "Ablation: DRAM row window (FR-FCFS approximation depth)",
       {{"1 (open-row only)", [](GpuConfig& c) { c.dram.row_window = 1; }},
        {"4 (default)", [](GpuConfig& c) { c.dram.row_window = 4; }},
        {"16", [](GpuConfig& c) { c.dram.row_window = 16; }}}},
      {"lsu",
       "Ablation: LSU queue depth",
       {{"24", [](GpuConfig& c) { c.lsu_max_inflight = 24; }},
        {"48", [](GpuConfig& c) { c.lsu_max_inflight = 48; }},
        {"96 (default)", [](GpuConfig& c) { c.lsu_max_inflight = 96; }}}},
      {"dyn_period",
       "Ablation: Dyn monitoring period (paper fixed 1000)",
       {{"250", [](GpuConfig& c) { c.sharing.dyn_period = 250; }},
        {"1000 (paper)", [](GpuConfig& c) { c.sharing.dyn_period = 1000; }},
        {"4000", [](GpuConfig& c) { c.sharing.dyn_period = 4000; }}}},
      {"dyn_step",
       "Ablation: Dyn step p (paper fixed 0.1)",
       {{"0.05", [](GpuConfig& c) { c.sharing.dyn_step = 0.05; }},
        {"0.1 (paper)", [](GpuConfig& c) { c.sharing.dyn_step = 0.1; }},
        {"0.5", [](GpuConfig& c) { c.sharing.dyn_step = 0.5; }}}}};
  return gs;
}

const std::vector<const char*>& kernel_names() {
  static const std::vector<const char*> names = {"hotspot", "lavaMD", "MUM"};
  return names;
}

std::string variant_label(const Group& g, const Tweak& t, bool shared) {
  return std::string(g.key) + "/" + t.label + (shared ? "/shared" : "/base");
}

runner::SweepSpec build() {
  runner::SweepSpec s;
  for (const Group& g : groups()) {
    for (const Tweak& t : g.tweaks) {
      for (const char* name : kernel_names()) {
        const KernelInfo k = workloads::by_name(name);
        const Resource res =
            k.set == "set2" ? Resource::kScratchpad : Resource::kRegisters;
        GpuConfig base = configs::unshared();
        GpuConfig shared = k.set == "set2" ? configs::shared_owf(res)
                                           : configs::shared_owf_unroll_dyn(res);
        t.apply(base);
        t.apply(shared);
        s.add(variant_label(g, t, /*shared=*/false), base, k);
        s.add(variant_label(g, t, /*shared=*/true), shared, k);
      }
    }
  }
  return s;
}

void present(const runner::BenchView& v) {
  for (const Group& g : groups()) {
    std::vector<std::string> header{"sharing gain"};
    for (const Tweak& t : g.tweaks) header.push_back(t.label);
    TextTable table(header);
    for (const char* name : kernel_names()) {
      std::vector<std::string> row{name};
      for (const Tweak& t : g.tweaks) {
        const SimResult* base = v.find(variant_label(g, t, /*shared=*/false), name);
        const SimResult* shared = v.find(variant_label(g, t, /*shared=*/true), name);
        if (base == nullptr || shared == nullptr) break;
        row.push_back(TextTable::pct(
            percent_improvement(base->stats.ipc(), shared->stats.ipc())));
      }
      if (row.size() == header.size()) table.add_row(std::move(row));
    }
    table.print(g.caption);
  }
}

const runner::BenchRegistrar reg{
    {"ablation_arch", "sensitivity of the headline result to model knobs", build, present}};

}  // namespace
}  // namespace grs
