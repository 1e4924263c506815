// One instruction of the synthetic kernel IR.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"
#include "isa/mem_profile.h"
#include "isa/opcode.h"

namespace grs {

struct Instruction {
  Op op = Op::kAlu;

  /// Destination / source architectural register numbers (per thread).
  /// kNoReg marks an unused slot. The sharing runtime classifies an access
  /// as *shared* when any operand register number exceeds the per-warp
  /// unshared threshold (paper Fig. 3 step (c)).
  RegNum dst = kNoReg;
  RegNum src0 = kNoReg;
  RegNum src1 = kNoReg;

  // --- global memory operands (valid when is_global_mem(op)) -------------
  MemPattern pattern = MemPattern::kCoalesced;
  Locality locality = Locality::kStreaming;
  /// Distinguishes independent data structures (different address regions).
  std::uint8_t region = 0;
  /// Footprint of the region in cache lines (locality-dependent meaning).
  std::uint32_t footprint_lines = 1 << 20;

  /// Measured per-instruction behaviour histograms (trace import or the
  /// generator). When set, the coalescer samples transaction count and line
  /// addresses from these instead of synthesizing from pattern/locality; the
  /// enum labels above stay as the fallback description. Shared: the same
  /// immutable profile is referenced by every copy of the instruction.
  std::shared_ptr<const MemProfile> profile;

  // --- scratchpad operand (valid when is_shared_mem(op)) -----------------
  /// Byte offset into the block's scratchpad allocation. The sharing runtime
  /// classifies offset > Rtb*t as a *shared* location (paper Fig. 4 step (c)).
  std::uint32_t smem_offset = 0;

  /// Highest register number touched, or kNoReg if none.
  [[nodiscard]] RegNum max_reg() const;

  /// Worst-case line transactions one warp access can produce: the top
  /// coalesce bucket when a profile is attached, the pattern's fixed count
  /// otherwise. Structural pre-checks (LSU/MSHR) must use this bound — a
  /// histogram draw may exceed what the fallback pattern label suggests.
  [[nodiscard]] std::uint32_t max_transactions() const;

  [[nodiscard]] std::string to_text() const;
};

}  // namespace grs
