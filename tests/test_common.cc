// Common substrate: config factories & validation, stats, PRNG, table writer,
// JSON string escaping, strict number parsing, and the §V hardware-cost
// formulas.
#include <gtest/gtest.h>

#include <string>

#include "common/config.h"
#include "common/json.h"
#include "common/parse.h"
#include "common/prng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/hardware_cost.h"

namespace grs {
namespace {

// --- config -------------------------------------------------------------------

TEST(Config, DefaultsMatchPaperTableI) {
  const GpuConfig c;
  EXPECT_EQ(c.num_sms, 14u);
  EXPECT_EQ(c.max_blocks_per_sm, 8u);
  EXPECT_EQ(c.max_threads_per_sm, 1536u);
  EXPECT_EQ(c.registers_per_sm, 32768u);
  EXPECT_EQ(c.scratchpad_per_sm, 16u * 1024);
  EXPECT_EQ(c.num_schedulers, 2u);
  EXPECT_EQ(c.scheduler, SchedulerKind::kLrr);
  EXPECT_EQ(c.l1.size_bytes, 16u * 1024);
  EXPECT_EQ(c.l2.size_bytes, 768u * 1024);
  EXPECT_EQ(c.max_warps_per_sm(), 48u);
}

TEST(Config, ExecModeDefaultsToEventAndRoundTrips) {
  EXPECT_EQ(GpuConfig{}.exec_mode, ExecMode::kEvent);
  EXPECT_STREQ(to_string(ExecMode::kCycle), "cycle");
  EXPECT_STREQ(to_string(ExecMode::kEvent), "event");
}

TEST(Config, LineLabelsMatchPaperFigureLegends) {
  EXPECT_EQ(configs::unshared().line_label(), "Unshared-LRR");
  EXPECT_EQ(configs::unshared(SchedulerKind::kGto).line_label(), "Unshared-GTO");
  EXPECT_EQ(configs::shared_noopt(Resource::kRegisters).line_label(), "Shared-LRR");
  EXPECT_EQ(configs::shared_unroll(Resource::kRegisters).line_label(),
            "Shared-LRR-Unroll");
  EXPECT_EQ(configs::shared_unroll_dyn(Resource::kRegisters).line_label(),
            "Shared-LRR-Unroll-Dyn");
  EXPECT_EQ(configs::shared_owf_unroll_dyn(Resource::kRegisters).line_label(),
            "Shared-OWF-Unroll-Dyn");
  EXPECT_EQ(configs::shared_owf(Resource::kScratchpad).line_label(), "Shared-OWF");
}

TEST(Config, FactoriesEncodeThePaperKnobs) {
  const GpuConfig c = configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.3);
  EXPECT_TRUE(c.sharing.enabled);
  EXPECT_EQ(c.scheduler, SchedulerKind::kOwf);
  EXPECT_TRUE(c.sharing.unroll_registers);
  EXPECT_TRUE(c.sharing.dynamic_warp_execution);
  EXPECT_DOUBLE_EQ(c.sharing.threshold_t, 0.3);
  EXPECT_NEAR(c.sharing.sharing_percent(), 70.0, 1e-9);
  EXPECT_EQ(c.sharing.dyn_period, 1000u);     // paper §IV-C
  EXPECT_DOUBLE_EQ(c.sharing.dyn_step, 0.1);  // paper §IV-C
}

TEST(ConfigDeath, InvalidThresholdRejected) {
  GpuConfig c = configs::shared_noopt(Resource::kRegisters);
  c.sharing.threshold_t = 0.0;
  EXPECT_DEATH(c.validate(), "threshold");
  c.sharing.threshold_t = 1.5;
  EXPECT_DEATH(c.validate(), "threshold");
}

TEST(ConfigDeath, MismatchedLineSizesRejected) {
  GpuConfig c;
  c.l1.line_bytes = 64;
  EXPECT_DEATH(c.validate(), "line_bytes");
}

// Regression: MemorySystem::access computes (l2_hit_latency - 40) / 2 on an
// unsigned Cycle, so a sweep point with l2_hit_latency < 40 used to wrap to
// ~2^63 and destroy the simulation instead of being rejected here.
TEST(ConfigDeath, L2HitLatencyBelowPipelineRejected) {
  GpuConfig c;
  c.l2_hit_latency = 39;
  EXPECT_DEATH(c.validate(), "L2 pipeline");
  c.l2_hit_latency = 0;
  EXPECT_DEATH(c.validate(), "L2 pipeline");
}

TEST(ConfigDeath, OddL2TransitRejected) {
  GpuConfig c;
  c.l2_hit_latency = kL2PipeLatency + 3;  // transit cannot split evenly
  EXPECT_DEATH(c.validate(), "even");
}

TEST(Config, L2HitLatencyAtPipelineFloorIsAccepted) {
  GpuConfig c;
  c.l2_hit_latency = kL2PipeLatency;  // zero-cycle interconnect is legal
  c.validate();
}

TEST(ConfigDeath, FractionalL2SetSplitRejected) {
  GpuConfig c;
  c.l2.size_bytes = 768 * 1024 + 512;  // not a whole number of sets
  EXPECT_DEATH(c.validate(), "whole number of sets");
}

TEST(ConfigDeath, TooFewL2MshrEntriesForBankSplitRejected) {
  GpuConfig c;
  c.l2.mshr_entries = c.dram.num_channels - 1;  // some bank would get zero
  EXPECT_DEATH(c.validate(), "MSHR entry per DRAM channel");
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, MergeSumsCountersAndMaxesResidency) {
  SmStats a, b;
  a.issued_cycles = 10;
  a.max_resident_blocks = 3;
  a.l1_misses = 7;
  b.issued_cycles = 5;
  b.max_resident_blocks = 6;
  b.l1_misses = 1;
  a.merge(b);
  EXPECT_EQ(a.issued_cycles, 15u);
  EXPECT_EQ(a.max_resident_blocks, 6u);
  EXPECT_EQ(a.l1_misses, 8u);
}

TEST(Stats, IpcUsesThreadInstructions) {
  GpuStats g;
  g.cycles = 100;
  g.sm_total.thread_instructions = 3200;
  g.sm_total.warp_instructions = 100;
  EXPECT_DOUBLE_EQ(g.ipc(), 32.0);
  EXPECT_DOUBLE_EQ(g.warp_ipc(), 1.0);
}

TEST(Stats, RatesHandleZeroDenominators) {
  GpuStats g;
  EXPECT_DOUBLE_EQ(g.ipc(), 0.0);
  EXPECT_DOUBLE_EQ(g.l1_miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(g.l2_miss_rate(), 0.0);
}

TEST(Stats, PercentHelpers) {
  EXPECT_DOUBLE_EQ(percent_improvement(100, 124), 24.0);
  EXPECT_DOUBLE_EQ(percent_improvement(200, 190), -5.0);
  EXPECT_DOUBLE_EQ(percent_decrease(200, 150), 25.0);
  EXPECT_DOUBLE_EQ(percent_improvement(0, 50), 0.0);
}

// --- prng ----------------------------------------------------------------------

TEST(Prng, Mix64IsDeterministicAndNontrivial) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  EXPECT_NE(mix64(0), 0u);
}

TEST(Prng, UnitDoubleInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Prng, NextBelowBounds) {
  SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Prng, StreamsWithDifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Prng, HashCombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// --- table ----------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  TextTable t({"app", "IPC"});
  t.add_row({"hotspot", "489.50"});
  t.add_row({"x", "1.00"});
  const std::string out = t.render();
  EXPECT_NE(out.find("hotspot"), std::string::npos);
  EXPECT_NE(out.find("489.50"), std::string::npos);
  // Both rows end at the same column (right alignment of numeric column).
  const auto l1_end = out.find('\n', out.find("hotspot"));
  const auto l2_end = out.find('\n', out.find("x "));
  EXPECT_EQ(l1_end - out.rfind('\n', l1_end - 1), l2_end - out.rfind('\n', l2_end - 1));
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(24.136, 2), "+24.14%");
  EXPECT_EQ(TextTable::pct(-0.72, 2), "-0.72%");
}

TEST(TableDeath, ArityMismatchRejected) {
  TextTable t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "arity");
}

// --- json -----------------------------------------------------------------------

TEST(Json, StringLiteralEscapesQuotesBackslashesAndControlCharacters) {
  std::string out = "x";
  append_json_string(out, std::string("a\"b\\c\n\x1f\x7f\xc3\xa9", 10));
  EXPECT_EQ(out, "x\"a\\\"b\\\\c\\u000a\\u001f\x7f\xc3\xa9\"");
  std::string nul;
  append_json_string(nul, std::string("\0", 1));
  EXPECT_EQ(nul, "\"\\u0000\"");
  std::string empty;
  append_json_string(empty, "");
  EXPECT_EQ(empty, "\"\"");
}

// --- strict parsing ---------------------------------------------------------------

TEST(Parse, FiniteDoubleIsAWholeStringParse) {
  EXPECT_EQ(parse_finite_double(std::string("12.5")), 12.5);
  EXPECT_EQ(parse_finite_double(std::string("+3")), 3.0);
  EXPECT_EQ(parse_finite_double(std::string("-2.5e-3")), -2.5e-3);
  EXPECT_EQ(parse_finite_double(std::string("0x1p-2")), 0.25);
  EXPECT_EQ(parse_finite_double(std::string("3.5714285714285716")), 3.5714285714285716);

  // Partial spellings, any whitespace, a NUL anywhere, and non-finite values.
  const auto rejected = [](const std::string& s) { return !parse_finite_double(s).has_value(); };
  EXPECT_TRUE(rejected(""));
  EXPECT_TRUE(rejected("4x"));
  EXPECT_TRUE(rejected("12.5 "));
  EXPECT_TRUE(rejected(" 12.5"));
  EXPECT_TRUE(rejected("\t12.5"));
  EXPECT_TRUE(rejected("\n12.5"));
  EXPECT_TRUE(rejected("\r12.5"));
  EXPECT_TRUE(rejected("\v12.5"));
  EXPECT_TRUE(rejected("\f12.5"));
  EXPECT_TRUE(rejected(std::string("12.5\0junk", 9)));
  EXPECT_TRUE(rejected(std::string("12.5\0", 5)));
  EXPECT_TRUE(rejected(std::string("\0" "12.5", 5)));
  EXPECT_TRUE(rejected("nan"));
  EXPECT_TRUE(rejected("inf"));
  EXPECT_TRUE(rejected("1e999"));
}

// --- hardware cost (paper §V) -----------------------------------------------------

TEST(HwCost, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(8), 3u);
  EXPECT_EQ(ceil_log2(9), 4u);
  EXPECT_EQ(ceil_log2(48), 6u);
}

TEST(HwCost, RegisterSharingFormulaAtTableIShape) {
  // T=8, W=48, N=14: per SM = 1 + 8*ceil(log2 9) + 2*48 + 24*ceil(log2 48)
  //                         = 1 + 32 + 96 + 144 = 273 bits.
  const HardwareCostParams p{8, 48, 14};
  EXPECT_EQ(register_sharing_bits(p), 273u * 14);
}

TEST(HwCost, ScratchpadSharingFormulaAtTableIShape) {
  // per SM = 1 + 32 + 48 + 4*3 = 93 bits.
  const HardwareCostParams p{8, 48, 14};
  EXPECT_EQ(scratchpad_sharing_bits(p), 93u * 14);
}

TEST(HwCost, ScalesLinearlyInSmCount) {
  HardwareCostParams a{8, 48, 1}, b{8, 48, 10};
  EXPECT_EQ(register_sharing_bits(b), 10 * register_sharing_bits(a));
  EXPECT_EQ(scratchpad_sharing_bits(b), 10 * scratchpad_sharing_bits(a));
}

TEST(HwCost, OverheadIsTiny) {
  // The paper's point: a few hundred bits per SM vs a 128KB register file.
  const HardwareCostParams p{8, 48, 14};
  const double per_sm_bits = static_cast<double>(register_sharing_bits(p)) / 14;
  EXPECT_LT(per_sm_bits / (32768.0 * 32.0), 0.001);
}

}  // namespace
}  // namespace grs
