// Observability vocabulary: the warp-state taxonomy and the L1 outcomes that
// the trace observer (obs/obs.cc, which holds the whole trace format) names
// its events after, and the docs describe.
//
// WarpState is the SM's one classification of a live warp: the candidate
// scan (sm/sm.cc scan_warp()) decides it, and everything else is derived
// from that decision. A warp the scan finds at a barrier, on its
// scoreboard, draining for exit, waiting on a sharing lock or, as a load no
// Dyn gate stands in front of, at a full L1 MSHR is parked: its state cannot
// change before its wake event (sm/sm.h), so the scan skips it and it stays
// in that state until then. Every other live warp is decided once per
// scanned cycle. Each warp holds its state and the cycle it entered it; a
// change closes that interval into the state's SmStats counter (a table in
// sm/sm.cc, which also gives the stall-or-idle split of common/stats.h) and
// is the one thing the trace observer renders, as the end of one slice and
// the begin of the next. So a warp's slice durations sum exactly to the
// per-state counters, and the trace bytes are identical across cycle and
// event exec modes (event mode only skips cycles whose scan is provably
// unchanged, in which no state changes).
#pragma once

#include <cstddef>
#include <cstdint>

namespace grs::obs {

/// What the candidate scan decided about one live warp this cycle.
enum class WarpState : std::uint8_t {
  kNone = 0,     ///< not live (internal sentinel; never emitted)
  kEligible,     ///< ready candidate (issued or lost arbitration)
  kBarrier,      ///< waiting at a block-wide barrier
  kScoreboard,   ///< RAW/WAW on an in-flight result
  kDrainExit,    ///< at kExit, draining in-flight instructions
  kLockWait,     ///< busy-waiting on a sharing lock (register or scratchpad)
  kDynGated,     ///< suppressed by the Dyn warp-execution gate
  kLsuPort,      ///< structural: LSU issue port taken this cycle
  kLsuQueue,     ///< structural: LSU in-flight queue full
  kMshrFull,     ///< structural: L1 MSHR cannot take the load's transactions
  kSfuPort,      ///< structural: SFU issue port taken this cycle
};

/// Number of WarpState values, kNone included (kSfuPort must stay the last
/// enumerator); sizes per-state tables.
inline constexpr std::size_t kNumWarpStates = static_cast<std::size_t>(WarpState::kSfuPort) + 1;

/// Slice name shown on the warp's Perfetto track.
[[nodiscard]] constexpr const char* to_string(WarpState s) {
  switch (s) {
    case WarpState::kNone: return "none";
    case WarpState::kEligible: return "eligible";
    case WarpState::kBarrier: return "barrier";
    case WarpState::kScoreboard: return "scoreboard";
    case WarpState::kDrainExit: return "exit-drain";
    case WarpState::kLockWait: return "lock-wait";
    case WarpState::kDynGated: return "dyn-gated";
    case WarpState::kLsuPort: return "lsu-port";
    case WarpState::kLsuQueue: return "lsu-queue";
    case WarpState::kMshrFull: return "mshr-full";
    case WarpState::kSfuPort: return "sfu-port";
  }
  return "?";
}

/// Outcome of one L1 transaction (loads; stores are fire-and-forget).
enum class L1Outcome : std::uint8_t { kHit, kMerge, kMiss, kStore };

[[nodiscard]] constexpr const char* to_string(L1Outcome o) {
  switch (o) {
    case L1Outcome::kHit: return "L1 hit";
    case L1Outcome::kMerge: return "L1 merge";
    case L1Outcome::kMiss: return "L1 miss";
    case L1Outcome::kStore: return "L1 store";
  }
  return "?";
}

}  // namespace grs::obs
