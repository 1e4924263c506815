// Per-resident-thread-block state.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "isa/instruction.h"

namespace grs {

/// The sharing lock an instruction takes at issue (paper Fig. 3/4 steps
/// (c)-(e)): none, the warp's register lock or its block's scratchpad lock.
enum class LockNeed : std::uint8_t { kNone, kReg, kSmem };

/// Which instructions of a block's warps take a sharing lock: in a shared
/// block, those touching a register at or above the unshared register count
/// (register sharing) or a scratchpad offset at or above the unshared bytes
/// (scratchpad sharing). Fixed for the block's life.
struct LockRule {
  LockNeed lock = LockNeed::kNone;  ///< kNone: the block is unshared
  std::uint32_t threshold = 0;      ///< first shared register number or byte

  [[nodiscard]] LockNeed need(const Instruction& ins) const {
    const RegNum m = ins.max_reg();
    const bool shared = lock == LockNeed::kReg
                            ? m != kNoReg && m >= threshold
                            : is_shared_mem(ins.op) && ins.smem_offset >= threshold;
    return shared ? lock : LockNeed::kNone;
  }
};

struct ResidentBlock {
  bool active = false;
  std::uint64_t block_uid = 0;  ///< grid-global block id
  std::uint32_t num_warps = 0;
  std::uint32_t first_warp_slot = 0;

  /// Sharing-pair membership: pair index within the SM, or -1 for an
  /// unshared block; side is 0/1 within the pair.
  int pair_id = -1;
  int side = -1;
  LockRule lock_rule;

  std::uint32_t warps_exited = 0;
  std::uint32_t barrier_arrived = 0;

  [[nodiscard]] bool finished() const { return active && warps_exited == num_warps; }
  [[nodiscard]] bool is_shared() const { return pair_id >= 0; }
};

}  // namespace grs
