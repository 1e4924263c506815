// Kernel ingestion hook for CLI/driver frontends: resolve a kernel argument
// to a KernelInfo wherever it comes from — a built-in paper kernel, a .gkd
// file on disk (workloads/format), the seeded generator (workloads/gen), or
// an address trace imported on the fly (workloads/trace).
//
//   hotspot               built-in (workloads::by_name)
//   path/to/kernel.gkd    .gkd file: spec contains '/' or ends in ".gkd"
//   gen:balanced:42       generator: profile "balanced", seed 42
//   trace:dump.csv        trace import: pc,tid,addr,size CSV or memory log
//
// Errors (unknown names, unreadable/malformed files, bad generator specs)
// are reported as std::runtime_error with an actionable message — including
// the valid kernel/profile names — so frontends can print them and exit
// instead of aborting the process.
#pragma once

#include <string>
#include <vector>

#include "workloads/kernel_info.h"

namespace grs::runner {

/// Resolve `spec` to a kernel; throws std::runtime_error on any failure.
[[nodiscard]] KernelInfo resolve_kernel(const std::string& spec);

/// The saved-kernel corpus directory: $GRS_CORPUS_DIR when set and non-empty,
/// else "examples/kernels" (relative to the working directory — the repo root
/// in CI and the documented workflows).
[[nodiscard]] std::string default_corpus_dir();

/// Load every .gkd file under `dir`, in sorted-path order (directory order is
/// unspecified). Unreadable or malformed files, and kernels the paper's GPU
/// (GpuConfig{}) refuses (refusals() in gpu/simulator.h), are reported on
/// stderr and skipped; an empty directory is reported and yields an empty
/// vector. Throws std::runtime_error, naming `dir` and GRS_CORPUS_DIR, when
/// `dir` cannot be read. The strict load contract lives in the test suite —
/// sweep drivers run what they can.
[[nodiscard]] std::vector<KernelInfo> load_kernel_dir(const std::string& dir);

}  // namespace grs::runner
