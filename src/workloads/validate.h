// .gkd lint: check a kernel description against a GpuConfig without
// simulating — parseability, then what simulate() refuses (refusals() in
// gpu/simulator.h: the SM fit and loads too wide for the L1 MSHR), then
// occupancy/sharing plausibility and profile-histogram sanity — reporting
// positioned "file:line: message" diagnostics instead of aborting. Backing
// for `grs_cli --validate`.
#pragma once

#include <string>
#include <vector>

#include "common/config.h"

namespace grs::workloads {

/// Lint `text` as a .gkd document against `cfg`. Returns one fully formatted
/// "file:line: message" diagnostic per problem; empty means clean. Never
/// throws on malformed input (parse failures become diagnostics).
[[nodiscard]] std::vector<std::string> lint_gkd(const std::string& text,
                                                const std::string& filename,
                                                const GpuConfig& cfg);

/// Read `path` and lint it; unreadable files yield a single diagnostic.
[[nodiscard]] std::vector<std::string> lint_gkd_file(const std::string& path,
                                                     const GpuConfig& cfg);

}  // namespace grs::workloads
