#include "common/buildinfo.h"

#ifdef __unix__
#include <unistd.h>
#endif

// The generated header only exists in CMake builds (cmake/buildinfo.cmake);
// everything degrades to "unknown" without it.
#if defined(__has_include)
#if __has_include("grs_buildinfo.h")
#include "grs_buildinfo.h"
#endif
#endif

#ifndef GRS_GIT_COMMIT
#define GRS_GIT_COMMIT "unknown"
#endif
#ifndef GRS_GIT_DIRTY
#define GRS_GIT_DIRTY 0
#endif
#ifndef GRS_BUILD_TYPE
#define GRS_BUILD_TYPE "unknown"
#endif

namespace grs {

namespace {

std::string detect_hostname() {
#ifdef __unix__
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) == 0) return buf;
#endif
  return "unknown";
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_commit = GRS_GIT_COMMIT;
    b.git_dirty = GRS_GIT_DIRTY != 0;
    b.build_type = GRS_BUILD_TYPE;
#ifdef __VERSION__
    b.compiler = __VERSION__;
#else
    b.compiler = "unknown";
#endif
    b.hostname = detect_hostname();
    return b;
  }();
  return info;
}

}  // namespace grs
