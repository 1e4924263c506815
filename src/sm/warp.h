// Per-warp execution state.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "isa/program.h"
#include "obs/events.h"

namespace grs {

/// Scoreboard mask helpers: one bit per architectural register (the IR caps
/// registers per thread at 64, checked at kernel launch).
[[nodiscard]] constexpr std::uint64_t reg_bit(RegNum r) {
  return r == kNoReg ? 0ull : (1ull << r);
}

/// Registers an instruction reads or writes (RAW + WAW hazard mask).
[[nodiscard]] constexpr std::uint64_t hazard_mask(const Instruction& i) {
  return reg_bit(i.dst) | reg_bit(i.src0) | reg_bit(i.src1);
}

struct Warp {
  // --- identity ----------------------------------------------------------
  bool active = false;           ///< slot holds a live warp
  std::uint32_t pos_in_block = 0;///< warp index within its block (pairing key)
  BlockSlot block = kInvalidSlot;
  std::uint64_t warp_uid = 0;    ///< grid-global unique id
  std::uint64_t dynamic_id = 0;  ///< SM-local launch order (age for GTO/OWF)
  std::uint32_t active_lanes = 32;

  // --- progress ------------------------------------------------------------
  ProgramCursor cursor;
  bool exited = false;
  bool at_barrier = false;

  // --- scoreboard ----------------------------------------------------------
  std::uint64_t pending_writes = 0;  ///< bit set => register write in flight
  std::uint32_t inflight = 0;        ///< instructions issued, not yet retired
  std::uint64_t mem_seq = 0;         ///< global-memory instructions issued

  // --- scan membership (sm/sm.h) ------------------------------------------
  /// The wait state this warp is parked in, out of its scheduler's ready set
  /// until a wake event; kNone while the scan visits it (or it is not live).
  obs::WarpState parked = obs::WarpState::kNone;

  void reset() { *this = Warp{}; }

  [[nodiscard]] bool live() const { return active && !exited; }
};

}  // namespace grs
