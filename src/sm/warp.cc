#include "sm/warp.h"

#include <cstddef>

// Warp is a plain aggregate; this TU exists so the header stays in the build
// graph and static_asserts run once.
namespace grs {
static_assert(offsetof(Warp, cursor) == 64,
              "every field a scan reads sits in the first cache line");
static_assert(sizeof(Warp) == 128, "a warp is two cache lines");
}  // namespace grs
