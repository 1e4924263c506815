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
  /// The instruction `cursor` stands at (cursor.peek()), decoded once: set
  /// at launch and after each advance(), so the per-cycle scan never calls
  /// peek(). Points into the Program, which outlives the SM and whose
  /// segments never move; nullptr once the program is exhausted.
  const Instruction* next = nullptr;
  /// L1 MSHR entries `next` can need: its max_transactions() when it is a
  /// global load, else 0 (stores bypass the MSHR).
  std::uint32_t next_load_lines = 0;
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
  /// `next` passed the scan's instruction-level checks (barrier, scoreboard,
  /// exit drain, sharing lock), so later scans run only the per-cycle ones.
  /// Cleared when the warp issues and by a lock-state change in its pair.
  bool decided = false;

  void reset() { *this = Warp{}; }

  /// Point `next` at the cursor's instruction (launch, and after advance()).
  void decode(const Program& p) {
    next = cursor.peek(p);
    next_load_lines =
        next != nullptr && next->op == Op::kLdGlobal ? next->max_transactions() : 0;
  }

  [[nodiscard]] bool live() const { return active && !exited; }
};

}  // namespace grs
