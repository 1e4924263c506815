// Warp scheduler policies: LRR rotation, GTO greediness/age, Two-Level
// grouping, OWF class priority and its GTO degeneration (paper §IV-A, §VI).
// Each case picks the way the SM's scan does: the lowest key among the
// issuable warps wins and is committed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "sm/scheduler.h"

namespace grs {
namespace {

/// One issuable warp as the scan sees it.
struct Cand {
  std::uint32_t slot = 0;
  std::uint64_t age = 0;  ///< dynamic id (smaller = older)
  WarpClass cls = WarpClass::kUnshared;
};

Cand c(std::uint32_t slot, std::uint64_t age, WarpClass cls = WarpClass::kUnshared) {
  return Cand{slot, age, cls};
}

/// Lowest key wins, then commit: the SM's pick. Returns the picked slot.
std::uint32_t pick(WarpScheduler& s, const std::vector<Cand>& cands) {
  std::uint32_t best = kInvalidSlot;
  std::uint64_t best_key = 0;
  for (const Cand& x : cands) {
    const std::uint64_t key = s.key(x.slot, x.age, x.cls);
    if (best == kInvalidSlot || key < best_key) {
      best = x.slot;
      best_key = key;
    }
  }
  s.commit(best);
  return best;
}

TEST(Lrr, RotatesThroughCandidates) {
  WarpScheduler s(SchedulerKind::kLrr, 8, 8);
  const std::vector<Cand> cands{c(0, 0), c(2, 1), c(4, 2), c(6, 3)};
  EXPECT_EQ(pick(s, cands), 0u);  // nothing issued yet: lowest slot
  EXPECT_EQ(pick(s, cands), 2u);
  EXPECT_EQ(pick(s, cands), 4u);
  EXPECT_EQ(pick(s, cands), 6u);
  EXPECT_EQ(pick(s, cands), 0u);  // wraps
  EXPECT_EQ(pick(s, cands), 2u);
}

// Regression for the last_slot_ = 0 initial state: warp slot 0 could never
// win the very first selection ("strictly after the last issued slot"), a
// permanent fairness bias against the first warp of every SM. All four
// policies must be able to pick slot 0 on their first call.
TEST(FirstPick, Lrr) {
  WarpScheduler s(SchedulerKind::kLrr, 8, 8);
  const std::vector<Cand> cands{c(0, 0), c(1, 1), c(2, 2)};
  EXPECT_EQ(pick(s, cands), 0u);
}

TEST(FirstPick, Gto) {
  // No greedy warp yet: oldest (smallest dynamic id) wins, slot 0 included.
  WarpScheduler s(SchedulerKind::kGto, 8, 8);
  const std::vector<Cand> cands{c(0, 0), c(1, 1), c(2, 2)};
  EXPECT_EQ(pick(s, cands), 0u);
}

TEST(FirstPick, TwoLevel) {
  // Active group 0, round-robin start: lowest slot of the group.
  WarpScheduler s(SchedulerKind::kTwoLevel, 16, 8);
  const std::vector<Cand> cands{c(0, 0), c(1, 1), c(9, 2)};
  EXPECT_EQ(pick(s, cands), 0u);
}

TEST(FirstPick, Owf) {
  // All-unshared degenerates to GTO: oldest wins, slot 0 included.
  WarpScheduler s(SchedulerKind::kOwf, 8, 8);
  const std::vector<Cand> cands{c(0, 0), c(1, 1), c(2, 2)};
  EXPECT_EQ(pick(s, cands), 0u);
}

TEST(Lrr, SkipsMissingSlots) {
  WarpScheduler s(SchedulerKind::kLrr, 8, 8);
  (void)pick(s, {c(5, 0)});  // last = 5
  const std::vector<Cand> cands{c(1, 0), c(3, 1)};
  EXPECT_EQ(pick(s, cands), 1u);  // wrap past 5
}

TEST(Gto, StaysGreedyWhileCandidateRemains) {
  WarpScheduler s(SchedulerKind::kGto, 8, 8);
  const std::vector<Cand> cands{c(0, 5), c(2, 1), c(4, 9)};
  const std::uint32_t first = pick(s, cands);
  EXPECT_EQ(first, 2u);  // oldest (age 1) picked initially
  // Greedy: keeps picking slot 2 while present.
  EXPECT_EQ(pick(s, cands), 2u);
  EXPECT_EQ(pick(s, cands), 2u);
}

TEST(Gto, FallsBackToOldestWhenGreedyStalls) {
  WarpScheduler s(SchedulerKind::kGto, 8, 8);
  (void)pick(s, {c(2, 1)});  // greedy = 2
  const std::vector<Cand> without2{c(0, 5), c(4, 3)};
  EXPECT_EQ(pick(s, without2), 4u);  // oldest of the rest
}

TEST(TwoLevel, PrefersActiveGroup) {
  WarpScheduler s(SchedulerKind::kTwoLevel, 16, 8);  // groups {0-7}, {8-15}
  const std::vector<Cand> cands{c(1, 0), c(9, 1)};
  EXPECT_EQ(pick(s, cands), 1u);  // group 0 active initially
  // The active group keeps priority while it has issuable warps (group
  // switches happen only when the group has nothing to issue).
  EXPECT_EQ(pick(s, cands), 1u);
}

TEST(TwoLevel, SwitchesGroupWhenActiveGroupEmpty) {
  WarpScheduler s(SchedulerKind::kTwoLevel, 16, 8);
  const std::vector<Cand> only_high{c(10, 0), c(12, 1)};
  EXPECT_EQ(pick(s, only_high), 10u);
  // Group 1 is now active; a group-0 candidate appearing does not preempt.
  const std::vector<Cand> mixed{c(1, 2), c(12, 1)};
  EXPECT_EQ(pick(s, mixed), 12u);
}

TEST(Owf, StrictClassPriority) {
  WarpScheduler s(SchedulerKind::kOwf, 8, 8);
  const std::vector<Cand> cands{
      c(0, 0, WarpClass::kSharedNonOwner),
      c(2, 1, WarpClass::kUnshared),
      c(4, 2, WarpClass::kSharedOwner)};
  // Owner beats unshared beats non-owner, regardless of age.
  EXPECT_EQ(pick(s, cands), 4u);
}

TEST(Owf, UnsharedBeatsNonOwner) {
  WarpScheduler s(SchedulerKind::kOwf, 8, 8);
  const std::vector<Cand> cands{c(0, 0, WarpClass::kSharedNonOwner),
                                          c(2, 9, WarpClass::kUnshared)};
  EXPECT_EQ(pick(s, cands), 2u);
}

TEST(Owf, NonOwnerRunsWhenAlone) {
  WarpScheduler s(SchedulerKind::kOwf, 8, 8);
  const std::vector<Cand> cands{c(6, 3, WarpClass::kSharedNonOwner)};
  EXPECT_EQ(pick(s, cands), 6u);
}

TEST(Owf, DegeneratesToGtoWhenAllUnshared) {
  // Paper §VI-B.2: with no shared blocks resident, OWF orders by dynamic
  // warp id and behaves like GTO.
  WarpScheduler owf(SchedulerKind::kOwf, 8, 8);
  WarpScheduler gto(SchedulerKind::kGto, 8, 8);
  const std::vector<Cand> cands{c(0, 7), c(2, 3), c(4, 5)};
  for (int step = 0; step < 5; ++step) {
    EXPECT_EQ(pick(owf, cands), pick(gto, cands)) << "step " << step;
  }
}

TEST(Owf, GreedyWithinClass) {
  WarpScheduler s(SchedulerKind::kOwf, 8, 8);
  const std::vector<Cand> owners{c(0, 5, WarpClass::kSharedOwner),
                                           c(2, 1, WarpClass::kSharedOwner)};
  EXPECT_EQ(pick(s, owners), 2u);  // oldest first
  EXPECT_EQ(pick(s, owners), 2u);  // then greedy on it
}

TEST(OwfRank, OrderingConstants) {
  EXPECT_LT(owf_rank(WarpClass::kSharedOwner), owf_rank(WarpClass::kUnshared));
  EXPECT_LT(owf_rank(WarpClass::kUnshared), owf_rank(WarpClass::kSharedNonOwner));
}

/// The list-based selection the keys replaced, transcribed as a reference:
/// each policy's loop over the candidates sorted by slot, then the commit.
class ListScheduler {
 public:
  ListScheduler(SchedulerKind kind, std::uint32_t total_slots, std::uint32_t group_size)
      : kind_(kind), total_slots_(total_slots), group_size_(group_size) {}

  std::uint32_t select(const std::vector<Cand>& cands) {
    std::size_t i = 0;
    switch (kind_) {
      case SchedulerKind::kLrr: i = select_lrr(cands); break;
      case SchedulerKind::kGto: i = select_gto(cands); break;
      case SchedulerKind::kTwoLevel: i = select_two_level(cands); break;
      case SchedulerKind::kOwf: i = select_owf(cands); break;
    }
    last_slot_ = cands[i].slot;
    greedy_slot_ = cands[i].slot;
    return cands[i].slot;
  }

 private:
  static std::size_t oldest_index(const std::vector<Cand>& cands) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < cands.size(); ++i)
      if (cands[i].age < cands[best].age) best = i;
    return best;
  }

  std::size_t select_lrr(const std::vector<Cand>& cands) const {
    for (std::size_t i = 0; i < cands.size(); ++i)
      if (cands[i].slot > last_slot_) return i;
    return 0;
  }

  std::size_t select_gto(const std::vector<Cand>& cands) const {
    for (std::size_t i = 0; i < cands.size(); ++i)
      if (cands[i].slot == greedy_slot_) return i;
    return oldest_index(cands);
  }

  std::size_t select_two_level(const std::vector<Cand>& cands) {
    const std::uint32_t n_groups = (total_slots_ + group_size_ - 1) / group_size_;
    for (std::uint32_t g = 0; g < n_groups; ++g) {
      const std::uint32_t group = (active_group_ + g) % n_groups;
      const std::uint32_t lo = group * group_size_;
      const std::uint32_t hi = lo + group_size_;
      std::size_t first_in_group = cands.size();
      for (std::size_t i = 0; i < cands.size(); ++i) {
        if (cands[i].slot < lo || cands[i].slot >= hi) continue;
        if (first_in_group == cands.size()) first_in_group = i;
        if (cands[i].slot > last_slot_) {
          active_group_ = group;
          return i;
        }
      }
      if (first_in_group != cands.size()) {
        active_group_ = group;
        return first_in_group;
      }
    }
    return 0;
  }

  std::size_t select_owf(const std::vector<Cand>& cands) const {
    int best_rank = 4;
    for (const Cand& x : cands) best_rank = std::min(best_rank, owf_rank(x.cls));
    std::size_t oldest = cands.size();
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (owf_rank(cands[i].cls) != best_rank) continue;
      if (cands[i].slot == greedy_slot_) return i;
      if (oldest == cands.size() || cands[i].age < cands[oldest].age) oldest = i;
    }
    return oldest;
  }

  SchedulerKind kind_;
  std::uint32_t total_slots_;
  std::uint32_t group_size_;
  std::uint32_t last_slot_ = kInvalidSlot;
  std::uint32_t greedy_slot_ = kInvalidSlot;
  std::uint32_t active_group_ = 0;
};

// Keys pick what the list loops picked, over random candidate sets. Each
// trial draws a policy, a slot count and a group size, gives every slot a
// distinct age and a class, and makes a run of picks; between picks a slot
// may take a new, youngest warp or change class, as launches and ownership
// transfers do.
TEST(Keys, PickWhatTheListLoopsPicked) {
  std::mt19937_64 rng(20161);
  const SchedulerKind kinds[] = {SchedulerKind::kLrr, SchedulerKind::kGto,
                                 SchedulerKind::kTwoLevel, SchedulerKind::kOwf};
  const WarpClass classes[] = {WarpClass::kUnshared, WarpClass::kSharedOwner,
                               WarpClass::kSharedNonOwner};
  auto below = [&rng](std::uint32_t n) {
    return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng);
  };
  std::uint64_t picks = 0;
  std::uint64_t mismatches = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const SchedulerKind kind = kinds[below(4)];
    const std::uint32_t slots = 1 + below(96);
    const std::uint32_t group = 1 + below(16);
    WarpScheduler keyed(kind, slots, group);
    ListScheduler listed(kind, slots, group);
    std::vector<std::uint64_t> age(slots);
    std::iota(age.begin(), age.end(), 0);
    std::shuffle(age.begin(), age.end(), rng);
    std::uint64_t next_age = slots;
    std::vector<WarpClass> cls(slots);
    for (WarpClass& x : cls) x = classes[below(3)];
    const std::uint32_t density = 1 + below(8);  // a slot is issuable with odds 1/density
    for (int step = 0; step < 100; ++step) {
      std::vector<Cand> cands;
      for (std::uint32_t slot = 0; slot < slots; ++slot) {
        if (below(density) == 0) cands.push_back(c(slot, age[slot], cls[slot]));
      }
      if (cands.empty()) {
        const std::uint32_t slot = below(slots);
        cands.push_back(c(slot, age[slot], cls[slot]));
      }
      ++picks;
      if (pick(keyed, cands) != listed.select(cands)) ++mismatches;
      const std::uint32_t changed = below(slots);
      if (below(4) == 0) age[changed] = next_age++;
      if (below(4) == 0) cls[changed] = classes[below(3)];
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << picks << " picks";
  EXPECT_EQ(picks, 400000u);
}

}  // namespace
}  // namespace grs
