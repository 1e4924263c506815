// Per-warp execution state.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "isa/program.h"
#include "obs/events.h"
#include "sm/block.h"

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

/// One warp slot: two cache lines. The first holds every field the scan,
/// instruction_wait() and retire() read (sm/sm.h), so visiting a warp
/// touches one line; the second holds what only issue() and a change of
/// state read.
struct alignas(64) Warp {
  std::uint64_t pending_writes = 0;  ///< scoreboard: bit set => register write in flight
  std::uint64_t dynamic_id = 0;      ///< SM-local launch order (age for GTO/OWF)
  std::uint64_t warp_uid = 0;        ///< grid-global unique id

  // --- the decoded next instruction (see decode()) -------------------------
  /// The instruction `cursor` stands at (cursor.peek()): set at launch and
  /// after each advance(), so the per-cycle scan never calls peek(). Points
  /// into the Program, which outlives the SM and whose segments never move;
  /// nullptr once the program is exhausted.
  const Instruction* next = nullptr;
  std::uint64_t next_hazard = 0;         ///< hazard_mask(*next)
  /// L1 MSHR entries `next` can need: its max_transactions() when it is a
  /// global load, else 0 (stores bypass the MSHR).
  std::uint32_t next_load_lines = 0;
  std::uint32_t inflight = 0;            ///< instructions issued, not yet retired
  BlockSlot block = kInvalidSlot;
  std::uint32_t pos_in_block = 0;        ///< warp index within its block (pairing key)
  Op next_op = Op::kAlu;
  LockNeed next_lock = LockNeed::kNone;  ///< the sharing lock `next` takes

  // --- scan state (sm/sm.h) -----------------------------------------------
  /// The state the warp's last scan found, held since `since`: kNone before
  /// its first scan and after its exit. A live warp out of the ready set is
  /// parked in it until a wake event.
  obs::WarpState state = obs::WarpState::kNone;
  /// `next` passed the scan's instruction-level checks (barrier, scoreboard,
  /// exit drain, sharing lock), so later scans run only the per-cycle ones.
  /// Cleared when the warp issues and by a lock-state change in its pair.
  bool decided = false;
  bool at_barrier = false;
  bool active = false;  ///< slot holds a live warp
  bool exited = false;

  // --- read at issue and at a change of state ---------------------------------
  ProgramCursor cursor;
  std::uint64_t mem_seq = 0;  ///< global-memory instructions issued
  Cycle since = 0;            ///< first cycle a scan found `state`
  std::uint32_t active_lanes = 32;

  void reset() { *this = Warp{}; }

  /// Point `next` at the cursor's instruction and record what the scan reads
  /// of it, taking its lock need from `rule`, its block's (launch, and after
  /// each advance()).
  void decode(const Program& p, const LockRule& rule) {
    next = cursor.peek(p);
    if (next == nullptr) return;
    next_op = next->op;
    next_hazard = hazard_mask(*next);
    next_load_lines = next_op == Op::kLdGlobal ? next->max_transactions() : 0;
    next_lock = rule.need(*next);
  }

  [[nodiscard]] bool live() const { return active && !exited; }
};

}  // namespace grs
