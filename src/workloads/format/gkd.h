// .gkd — the human-readable text format for kernel descriptions.
//
// A .gkd document carries everything a KernelInfo holds: name, suite/set
// labels, resource demand (threads/block, registers/thread, scratchpad
// bytes/block), grid size, active lanes, and the full segmented instruction
// stream. serialize() emits a canonical form; parse() accepts that form plus
// comments ('#' to end of line) and flexible whitespace, and reports every
// malformed input as a ParseError carrying the 1-based line:column position —
// it never aborts the process. Round-trip fidelity is exact:
// serialize(parse(serialize(k))) == serialize(k) byte for byte.
//
//   gkd 1
//   kernel "hotspot"
//   suite "RODINIA"
//   set "set1"
//   threads 256
//   regs 36
//   smem 512
//   grid 252
//   lanes 32
//
//   segment x5 {
//     ld.global $r0, coalesced grid-shared region=1 lines=512
//     alu $r1, $r0, $r1
//   }
//   segment x1 {
//     exit
//   }
//
// Header keys kernel/threads/regs/grid are required; suite/set default to ""
// and smem/lanes to 0/32. Instruction forms (one per line, '-' marks an
// unused register operand):
//
//   alu|sfu   $rD[, $rS0[, $rS1]]
//   ld.global $rD, PATTERN LOCALITY region=N lines=N [addr=$rA] [profile {...}]
//   st.global $rS, PATTERN LOCALITY region=N lines=N [profile {...}]
//   ld.shared $rD, smem[OFFSET]
//   st.shared $rS, smem[OFFSET]
//   bar.sync
//   exit
//
// PATTERN / LOCALITY use the to_string() spellings from isa/opcode.h
// (coalesced, strided2, ... / streaming, warp-local, ...). The loader
// enforces the same structural rules as Program::validate() and
// KernelInfo::validate() — register numbers below `regs`, scratchpad offsets
// inside the `smem` allocation, exactly one trailing exit — but reports them
// as positioned ParseErrors instead of aborting.
//
// A global-memory instruction may carry a measured-behaviour `profile` block
// (isa/mem_profile.h, produced by the trace importer in workloads/trace);
// when present, the simulator samples addresses from these histograms and
// the PATTERN/LOCALITY labels become a descriptive fallback:
//
//   ld.global $r0, coalesced streaming region=1 lines=512 profile {
//     coalesce 1:90 2:10          # lines per warp access : weight
//     stride 1:95 16:5            # line delta between accesses : weight
//     reuse cold:60 2:25 8:15     # reuse distance in accesses : weight
//     footprint 4096              # distinct lines touched in total
//   }
//
// All four fields are required; entries are VALUE:WEIGHT with integer
// weights >= 1, stride values may be negative, and `cold` (no reuse) is only
// valid in `reuse`. The canonical form the serializer emits sorts every
// histogram by value (cold first), which keeps round-trips byte-identical.
#pragma once

#include <stdexcept>
#include <string>

#include "workloads/kernel_info.h"

namespace grs::workloads::gkd {

/// Positioned parse failure; what() reads "file:line:col: message".
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& file, int line, int col, const std::string& message);

  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int col() const { return col_; }

 private:
  int line_;
  int col_;
};

/// Canonical text form of `k` (ends with a newline).
[[nodiscard]] std::string serialize(const KernelInfo& k);
/// Appends the same text to `out`, so a caller keying many kernels can reuse
/// one buffer (cache::Fingerprints).
void serialize(const KernelInfo& k, std::string& out);
/// Appends the header part of that text: every line before the first
/// segment, which renders every KernelInfo field except the program.
/// serialize() writes its header through this, so the two cannot disagree.
void serialize_header(const KernelInfo& k, std::string& out);

/// Parse a .gkd document. `filename` only labels error messages.
[[nodiscard]] KernelInfo parse(const std::string& text, const std::string& filename = "<gkd>");

/// Read and parse `path`. Throws std::runtime_error when the file cannot be
/// read, ParseError when it cannot be parsed.
[[nodiscard]] KernelInfo load_file(const std::string& path);

/// Write serialize(k) to `path`; throws std::runtime_error on I/O failure.
void dump_file(const KernelInfo& k, const std::string& path);

}  // namespace grs::workloads::gkd
