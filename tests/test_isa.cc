// Kernel IR: builder, program validation, cursor semantics, and the
// unroll/reorder pass (paper §IV-B).
#include <gtest/gtest.h>

#include <utility>

#include "isa/analysis.h"
#include "isa/builder.h"
#include "isa/program.h"
#include "isa/reorder.h"
#include "workloads/suites.h"

namespace grs {
namespace {

Program small_program() {
  ProgramBuilder b(8);
  b.alu(0).alu(1, 0);
  b.loop(3, [](ProgramBuilder& l) {
    l.ld_global(2, MemPattern::kCoalesced, Locality::kStreaming, 1, 0);
    l.alu(3, 2, 1);
  });
  b.st_global(3, MemPattern::kCoalesced, Locality::kStreaming, 2, 0);
  return b.build();
}

// --- builder / program ----------------------------------------------------

TEST(Builder, AppendsExitAndValidates) {
  const Program p = small_program();
  EXPECT_EQ(p.segments().back().instrs.back().op, Op::kExit);
  EXPECT_EQ(p.num_regs(), 8);
}

TEST(Builder, DynamicLengthCountsLoopIterations) {
  const Program p = small_program();
  // 2 (prologue) + 3 iterations x 2 + 1 (store) + 1 (exit) = 10.
  EXPECT_EQ(p.dynamic_length(), 10u);
  EXPECT_EQ(p.static_length(), 6u);
}

TEST(Builder, LoopsBecomeTheirOwnSegments) {
  const Program p = small_program();
  ASSERT_EQ(p.segments().size(), 3u);
  EXPECT_EQ(p.segments()[0].iterations, 1u);
  EXPECT_EQ(p.segments()[1].iterations, 3u);
  EXPECT_EQ(p.segments()[2].iterations, 1u);
}

TEST(Builder, AluChainCyclesThroughRing) {
  ProgramBuilder b(4);
  b.alu_chain(6, {0, 1, 2});
  const Program p = b.build();
  EXPECT_EQ(p.dynamic_length(), 7u);  // 6 + exit
}

TEST(BuilderDeath, NestedLoopsRejected) {
  ProgramBuilder b(4);
  EXPECT_DEATH(b.loop(2, [](ProgramBuilder& outer) {
    outer.loop(2, [](ProgramBuilder& inner) { inner.alu(0); });
  }),
               "nested loops");
}

TEST(BuilderDeath, EmptyLoopBodyRejected) {
  ProgramBuilder b(4);
  EXPECT_DEATH(b.loop(2, [](ProgramBuilder&) {}), "empty loop body");
}

TEST(ProgramDeath, RegisterOutOfRangeRejected) {
  ProgramBuilder b(4);
  b.alu(5);  // register 5 with num_regs 4
  EXPECT_DEATH((void)b.build(), "register number out of range");
}

TEST(Program, CopiesShareStorageAndAMovedFromProgramIsEmpty) {
  Program p = small_program();
  const Program copy = p;  // shares the segments; nothing is copied
  EXPECT_EQ(copy.storage(), p.storage());
  EXPECT_EQ(&copy.segments(), &p.segments());

  const Program moved = std::move(p);
  EXPECT_EQ(moved.storage(), copy.storage());
  EXPECT_EQ(moved.dynamic_length(), 10u);
  // The moved-from Program keeps no view of storage it no longer owns.
  EXPECT_EQ(p.storage(), nullptr);
  EXPECT_TRUE(p.segments().empty());
  const ProgramCursor c(p);
  EXPECT_TRUE(c.done(p));
  EXPECT_EQ(c.peek(p), nullptr);
}

TEST(Instruction, MaxRegConsidersAllOperands) {
  Instruction i;
  i.dst = 3;
  i.src0 = 7;
  i.src1 = 1;
  EXPECT_EQ(i.max_reg(), 7);
  Instruction bar;
  bar.op = Op::kBarrier;
  EXPECT_EQ(bar.max_reg(), kNoReg);
}

TEST(Opcode, Classification) {
  EXPECT_TRUE(is_global_mem(Op::kLdGlobal));
  EXPECT_TRUE(is_global_mem(Op::kStGlobal));
  EXPECT_TRUE(is_shared_mem(Op::kLdShared));
  EXPECT_FALSE(is_global_mem(Op::kLdShared));
  EXPECT_TRUE(is_mem(Op::kStShared));
  EXPECT_FALSE(is_mem(Op::kAlu));
  EXPECT_TRUE(is_load(Op::kLdGlobal));
  EXPECT_FALSE(is_load(Op::kStGlobal));
}

TEST(Opcode, TransactionsPerPattern) {
  EXPECT_EQ(transactions_per_access(MemPattern::kCoalesced), 1u);
  EXPECT_EQ(transactions_per_access(MemPattern::kStrided2), 2u);
  EXPECT_EQ(transactions_per_access(MemPattern::kStrided4), 4u);
  EXPECT_EQ(transactions_per_access(MemPattern::kScatter8), 8u);
  EXPECT_EQ(transactions_per_access(MemPattern::kScatter32), 32u);
}

// --- cursor -----------------------------------------------------------------

TEST(Cursor, WalksExactlyDynamicLength) {
  const Program p = small_program();
  ProgramCursor c(p);
  std::uint64_t n = 0;
  while (c.peek(p) != nullptr) {
    c.advance(p);
    ++n;
  }
  EXPECT_EQ(n, p.dynamic_length());
  EXPECT_TRUE(c.done(p));
  EXPECT_EQ(c.consumed(), n);
}

TEST(Cursor, LoopBodyRepeatsInOrder) {
  ProgramBuilder b(4);
  b.loop(2, [](ProgramBuilder& l) { l.alu(0).alu(1, 0); });
  const Program p = b.build();
  ProgramCursor c(p);
  // iteration 1
  EXPECT_EQ(c.peek(p)->dst, 0);
  c.advance(p);
  EXPECT_EQ(c.peek(p)->dst, 1);
  c.advance(p);
  // iteration 2
  EXPECT_EQ(c.peek(p)->dst, 0);
  c.advance(p);
  EXPECT_EQ(c.peek(p)->dst, 1);
  c.advance(p);
  EXPECT_EQ(c.peek(p)->op, Op::kExit);
}

// --- unroll/reorder pass -----------------------------------------------------

TEST(Reorder, PermutationIsBijective) {
  for (const auto& name : workloads::all_names()) {
    const Program p = workloads::by_name(name).program;
    const std::vector<RegNum> map = first_use_permutation(p);
    std::vector<bool> seen(p.num_regs(), false);
    for (RegNum r : map) {
      ASSERT_LT(r, p.num_regs());
      EXPECT_FALSE(seen[r]) << name;
      seen[r] = true;
    }
  }
}

TEST(Reorder, FirstUseOrderIsMonotonicAfterPass) {
  for (const auto& name : workloads::all_names()) {
    const Program p = reorder_registers_by_first_use(workloads::by_name(name).program);
    RegNum next_expected = 0;
    for (const auto& s : p.segments()) {
      for (const auto& i : s.instrs) {
        for (RegNum r : {i.src0, i.src1, i.dst}) {
          if (r == kNoReg) continue;
          if (r == next_expected) ++next_expected;
          EXPECT_LE(r, next_expected) << name << ": register " << r
                                      << " first used before " << next_expected;
        }
      }
    }
  }
}

TEST(Reorder, IdempotentOnReorderedPrograms) {
  const Program p = reorder_registers_by_first_use(workloads::hotspot().program);
  const Program q = reorder_registers_by_first_use(p);
  ASSERT_EQ(p.segments().size(), q.segments().size());
  for (std::size_t s = 0; s < p.segments().size(); ++s) {
    ASSERT_EQ(p.segments()[s].instrs.size(), q.segments()[s].instrs.size());
    for (std::size_t i = 0; i < p.segments()[s].instrs.size(); ++i) {
      EXPECT_EQ(p.segments()[s].instrs[i].dst, q.segments()[s].instrs[i].dst);
      EXPECT_EQ(p.segments()[s].instrs[i].src0, q.segments()[s].instrs[i].src0);
    }
  }
}

TEST(Reorder, PreservesEverythingExceptRegisterNumbers) {
  const Program p = workloads::sgemm().program;
  const Program q = reorder_registers_by_first_use(p);
  EXPECT_EQ(p.dynamic_length(), q.dynamic_length());
  ASSERT_EQ(p.segments().size(), q.segments().size());
  for (std::size_t s = 0; s < p.segments().size(); ++s) {
    EXPECT_EQ(p.segments()[s].iterations, q.segments()[s].iterations);
    for (std::size_t i = 0; i < p.segments()[s].instrs.size(); ++i) {
      const Instruction& a = p.segments()[s].instrs[i];
      const Instruction& b = q.segments()[s].instrs[i];
      EXPECT_EQ(a.op, b.op);
      EXPECT_EQ(a.pattern, b.pattern);
      EXPECT_EQ(a.locality, b.locality);
      EXPECT_EQ(a.region, b.region);
      EXPECT_EQ(a.smem_offset, b.smem_offset);
      EXPECT_EQ(a.dst == kNoReg, b.dst == kNoReg);
    }
  }
}

TEST(Reorder, NeverShortensTheUnsharedPrefix) {
  // The pass exists to let non-owner warps run further before their first
  // shared-register access (paper §IV-B); it must never make things worse.
  for (const auto& name : workloads::all_names()) {
    const KernelInfo k = workloads::by_name(name);
    const Program reordered = reorder_registers_by_first_use(k.program);
    for (const double t : {0.1, 0.3, 0.5}) {
      const auto thresh = static_cast<RegNum>(k.resources.regs_per_thread * t);
      if (thresh == 0) continue;
      EXPECT_GE(instructions_before_shared_reg(reordered, thresh),
                instructions_before_shared_reg(k.program, thresh))
          << name << " t=" << t;
    }
  }
}

// --- analysis ----------------------------------------------------------------

TEST(Analysis, MixSummaryCounts) {
  const MixSummary m = summarize_mix(small_program());
  EXPECT_EQ(m.alu, 2u + 3u);
  EXPECT_EQ(m.global_mem, 3u + 1u);
  EXPECT_EQ(m.total, 10u);
  EXPECT_NEAR(m.mem_fraction(), 0.4, 1e-9);
}

TEST(Analysis, SharedRegDepthFullLengthWhenNoSharedAccess) {
  ProgramBuilder b(8);
  b.alu(0).alu(1, 0);
  const Program p = b.build();
  EXPECT_EQ(instructions_before_shared_reg(p, 2), p.dynamic_length());
  EXPECT_EQ(instructions_before_shared_reg(p, 1), 1u);  // blocked at alu(1,..)
}

TEST(Analysis, SharedSmemDepthHonoursThreshold) {
  ProgramBuilder b(4);
  b.ld_shared(0, 100);
  b.ld_shared(1, 900);
  const Program p = b.build();
  EXPECT_EQ(instructions_before_shared_smem(p, 1000), p.dynamic_length());
  EXPECT_EQ(instructions_before_shared_smem(p, 500), 1u);
  EXPECT_EQ(instructions_before_shared_smem(p, 50), 0u);
}

TEST(Analysis, LavaMdNeverTouchesSharedRegionAt90Percent) {
  // Paper §VI-B: no lavaMD scratchpad access falls into the shared region.
  const KernelInfo k = workloads::lavamd();
  const std::uint32_t private_bytes =
      static_cast<std::uint32_t>(k.resources.smem_per_block * 0.1);
  EXPECT_EQ(instructions_before_shared_smem(k.program, private_bytes),
            k.program.dynamic_length());
}

}  // namespace
}  // namespace grs
