// Warp scheduling policies (paper §II, §IV-A, §VI).
//
// Each SM runs `num_schedulers` independent scheduler instances; warps are
// statically assigned by slot parity. A policy is a priority key: as the SM
// scans a scheduler's warps it keys each one that is *issuable* this cycle
// and keeps the lowest key, then commits that warp as the pick. Keys are
// distinct within an SM (they end in the slot or in the dynamic id), so the
// pick does not depend on the scan order:
//
//   LRR       loose round-robin over warp slots (GPGPU-Sim baseline):
//             (slot <= last issued slot, slot).
//   GTO       greedy-then-oldest: stay on the last issued warp while it is
//             issuable, else the oldest (smallest dynamic id):
//             (slot != greedy slot, age).
//   Two-Level fetch groups of `group_size` warps; round-robin inside the
//             active group; switch groups when the active group has nothing
//             to issue (Narasiman et al.): (groups after the active one,
//             slot <= last issued slot, slot).
//   OWF       owner-warp-first (the paper's policy): strict class priority
//             shared-owner > unshared > shared-non-owner, GTO order within
//             a class: (class rank, slot != greedy slot, age). With no
//             shared blocks resident all warps are unshared and OWF
//             degenerates to GTO (paper §VI-B.2).
#pragma once

#include <cstdint>

#include "common/types.h"

namespace grs {

/// Priority rank for OWF (lower issues first).
[[nodiscard]] constexpr int owf_rank(WarpClass c) {
  switch (c) {
    case WarpClass::kSharedOwner: return 0;
    case WarpClass::kUnshared: return 1;
    case WarpClass::kSharedNonOwner: return 2;
  }
  return 3;
}

class WarpScheduler {
 public:
  WarpScheduler(SchedulerKind kind, std::uint32_t total_slots, std::uint32_t group_size);

  /// The priority of an issuable warp in `slot` with dynamic id `age`
  /// (below 2^61) and class `cls` (read by OWF only); the lowest key wins.
  [[nodiscard]] std::uint64_t key(std::uint32_t slot, std::uint64_t age, WarpClass cls) const {
    const std::uint64_t not_greedy = slot != greedy_slot_ ? 1 : 0;
    const std::uint64_t wrapped = slot <= last_slot_ ? 1 : 0;
    switch (kind_) {
      case SchedulerKind::kLrr: return (wrapped << 32) | slot;
      case SchedulerKind::kGto: return (not_greedy << 61) | age;
      case SchedulerKind::kTwoLevel: {
        const std::uint64_t after_active =
            (slot / group_size_ + n_groups_ - active_group_) % n_groups_;
        return (after_active << 33) | (wrapped << 32) | slot;
      }
      case SchedulerKind::kOwf:
        return (static_cast<std::uint64_t>(owf_rank(cls)) << 62) | (not_greedy << 61) | age;
    }
    return 0;
  }

  /// Record the warp in `slot` as this cycle's pick.
  void commit(std::uint32_t slot) {
    last_slot_ = slot;
    greedy_slot_ = slot;
    if (kind_ == SchedulerKind::kTwoLevel) active_group_ = slot / group_size_;
  }

  [[nodiscard]] SchedulerKind kind() const { return kind_; }

 private:
  SchedulerKind kind_;
  std::uint32_t group_size_;
  std::uint32_t n_groups_ = 1;  ///< Two-Level fetch groups over the SM's slots

  /// LRR / Two-Level rotation point. Starts at the kInvalidSlot sentinel
  /// ("nothing issued yet") so the very first selection falls through to the
  /// lowest-slot candidate; a 0 start would skip slot 0 on the first pick
  /// ("strictly after the last issued slot") forever disadvantaging it.
  std::uint32_t last_slot_ = kInvalidSlot;
  std::uint32_t greedy_slot_ = kInvalidSlot;  ///< GTO / OWF sticky warp
  std::uint32_t active_group_ = 0;  ///< Two-Level
};

}  // namespace grs
