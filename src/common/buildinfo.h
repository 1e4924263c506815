// Build attribution: which commit, compiler, and build type produced this
// binary. Baked in at build time by cmake/buildinfo.cmake (a generated
// header, refreshed on every build); falls back to "unknown" when built
// outside a git checkout or without the generated header (plain
// `c++ src/**.cc`). Consumed by run manifests (runner/manifest.cc) so every
// run's telemetry is attributable to a commit.
#pragma once

#include <string>

namespace grs {

struct BuildInfo {
  std::string git_commit;  ///< full sha, or "unknown" outside a checkout
  bool git_dirty = false;  ///< uncommitted changes at build time
  std::string build_type;  ///< CMAKE_BUILD_TYPE, or "unknown"
  std::string compiler;    ///< __VERSION__, or "unknown"
  std::string hostname;    ///< gethostname(), or "unknown"
};

/// The process-wide build/host facts (computed once).
[[nodiscard]] const BuildInfo& build_info();

}  // namespace grs
