// corpus — sweep every saved .gkd kernel in the corpus directory across the
// headline configuration lines, so interesting fuzz finds and trace imports
// stay permanent regression points.
//
// The directory defaults to examples/kernels/ (relative to the working
// directory, which is the repo root in CI); override with GRS_CORPUS_DIR. A
// directory that cannot be read fails the bench. Unreadable or malformed
// files, and kernels the paper's GPU refuses, are reported on stderr and
// skipped (runner::load_kernel_dir) — the strict load check lives in the
// test suite, the bench's job is to run what it can. Scratchpad-sharing
// lines are added only for kernels that declare scratchpad.
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "runner/kernel_source.h"
#include "runner/registry.h"

namespace grs {
namespace {

std::vector<KernelInfo> load_corpus() {
  return runner::load_kernel_dir(runner::default_corpus_dir());
}

GpuConfig shared_reg() { return configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1); }
GpuConfig shared_smem() { return configs::shared_owf(Resource::kScratchpad, 0.1); }

runner::SweepSpec build() {
  runner::SweepSpec s;
  for (const KernelInfo& k : load_corpus()) {
    s.add(configs::unshared().line_label(), configs::unshared(), k);
    s.add(configs::unshared(SchedulerKind::kGto).line_label(),
          configs::unshared(SchedulerKind::kGto), k);
    s.add(shared_reg().line_label(), shared_reg(), k);
    if (k.resources.smem_per_block > 0) s.add(shared_smem().line_label(), shared_smem(), k);
  }
  return s;
}

void present(const runner::BenchView& v) {
  TextTable table({"kernel", "Unshared-LRR", "Unshared-GTO", "Shared-reg", "Shared-smem"});
  for (const std::string& name : v.kernels()) {
    auto ipc = [&](const std::string& line) {
      const SimResult* r = v.find(line, name);
      return r == nullptr ? std::string("-") : TextTable::fmt(r->stats.ipc());
    };
    table.add_row({name, ipc(configs::unshared().line_label()),
                   ipc(configs::unshared(SchedulerKind::kGto).line_label()),
                   ipc(shared_reg().line_label()), ipc(shared_smem().line_label())});
  }
  table.print("Corpus sweep: IPC per configuration line");
}

const runner::BenchRegistrar reg{
    {"corpus", "saved .gkd corpus sweep (examples/kernels, GRS_CORPUS_DIR to override)",
     build, present}};

}  // namespace
}  // namespace grs
