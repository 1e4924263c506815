// Address-trace ingestion: parse real memory traces into a stream of
// warp-level accesses, the input of the histogram reducer (trace/reduce.h).
//
// Two formats are accepted, auto-detected per file:
//
// 1. Generic CSV (one record per thread access; header line optional):
//
//      pc,tid,addr,size
//      0x80,0,0x10000,4
//      0x80,1,0x10004,4
//
//    Numbers are decimal or 0x-hex; `size` is bytes (0 reads as 4); a fifth
//    column `r|w` (or `ld|st`) marks loads/stores, defaulting to load.
//    Consecutive records with the same pc and 32-lane warp (tid / 32) fold
//    into one warp access; a repeated lane closes the current access and
//    opens the next dynamic instance.
//
// 2. Memory-log lines (GPGPU-Sim-style, one warp access per line):
//
//      0x0080 3 LDG 0x10000 0x10080 0x10100
//      <pc>  <warp> <opcode> <addr...>
//
//    The opcode token classifies loads vs stores (it contains "ld"/"LD" or
//    "st"/"ST"); per-lane addresses follow, all assumed 4-byte.
//
// '#' starts a comment in both formats; blank lines are skipped. Malformed
// input raises TraceError with a "file:line: message" what() — never an
// abort — so frontends can print it and exit.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace grs::workloads::trace {

/// Positioned trace-parse failure; what() reads "file:line: message".
class TraceError : public std::runtime_error {
 public:
  TraceError(const std::string& file, int line, const std::string& message)
      : std::runtime_error(file + ":" + std::to_string(line) + ": " + message),
        line_(line) {}

  [[nodiscard]] int line() const { return line_; }

 private:
  int line_;
};

/// One lane's contribution to a warp access.
struct LaneAccess {
  Addr addr = 0;
  std::uint32_t size = 4;  ///< bytes
};

/// One dynamic warp-level access of one memory instruction.
struct WarpAccess {
  std::uint64_t pc = 0;
  std::uint32_t warp_id = 0;
  bool is_store = false;
  std::vector<LaneAccess> lanes;
};

struct Trace {
  std::vector<WarpAccess> accesses;
  std::uint64_t records = 0;   ///< thread-level records consumed
  std::uint32_t max_tid = 0;   ///< highest thread id observed (sizing the grid)
};

/// Parse trace text (format auto-detected). `filename` labels errors only.
[[nodiscard]] Trace parse_trace(const std::string& text, const std::string& filename = "<trace>");

}  // namespace grs::workloads::trace
