// Content-addressed result cache (src/cache), the SimResult codec it stores
// (gpu/result_codec), the config/kernel fingerprints that key it, the
// cache-aware engine paths, and the shared CLI option surface.
//
// The coverage guards near the top are deliberate tripwires: adding a field
// to GpuConfig (or its nested structs) without extending canonical_kv(), or
// to SmStats/GpuStats/Occupancy without extending result_fields(), must fail
// here rather than silently aliasing cache entries across semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/key.h"
#include "cache/result_cache.h"
#include "common/config.h"
#include "common/hash.h"
#include "common/io.h"
#include "core/occupancy.h"
#include "gpu/result_codec.h"
#include "gpu/simulator.h"
#include "prof/prof.h"
#include "runner/cli_options.h"
#include "runner/engine.h"
#include "runner/sink.h"
#include "study/plan.h"
#include "workloads/format/gkd.h"
#include "workloads/gen/generator.h"
#include "workloads/gen/profile.h"
#include "workloads/suites.h"

namespace grs {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty store directory under the test temp root.
std::string fresh_store(const std::string& name) {
  const std::string dir = testing::TempDir() + "/grs_cache_" + name;
  fs::remove_all(dir);
  return dir;
}

/// A small kernel that simulates in milliseconds.
KernelInfo small_kernel(std::size_t index = 0) {
  std::vector<KernelInfo> kernels = workloads::set1();
  KernelInfo k = kernels[index % kernels.size()];
  k.grid_blocks = 6;
  return k;
}

/// 2 variants x 2 kernels, shrunk like test_runner's tiny_spec.
runner::SweepSpec tiny_spec() {
  runner::SweepSpec s;
  const std::vector<runner::ConfigVariant> variants = {
      runner::ConfigVariant::of(configs::unshared()),
      runner::ConfigVariant::of(configs::shared_owf_unroll_dyn(Resource::kRegisters))};
  s.add_grid(variants, {small_kernel(0), small_kernel(1)});
  return s;
}

runner::RunOptions cached_options(const std::string& dir, cache::CacheMode mode,
                                  cache::CacheStats* stats = nullptr) {
  runner::RunOptions o;
  o.threads = 2;
  o.cache_dir = dir;
  o.cache_mode = mode;
  o.cache_stats = stats;
  return o;
}

std::string csv_of(const std::vector<runner::SweepRow>& rows) {
  std::ostringstream out;
  runner::CsvSink sink(out);
  sink.begin();
  for (const runner::SweepRow& r : rows) sink.add("cachetest", r);
  sink.end();
  return out.str();
}

// --- coverage guards ----------------------------------------------------------

// If any of these fail after a struct gained a field: extend
// GpuConfig::canonical_kv() / result_fields() (and, for Occupancy,
// cache::result_cache_key()), bump the matching schema version (kSimSchemaVersion
// for semantics, kResultCodecVersion for payload layout), and update the
// numbers here. Pointer-size gate: the sizeof values are for LP64; the
// enumeration-count guards below hold everywhere.
TEST(CodecCoverage, StructSizesMatchTheEnumeratedFields) {
  if (sizeof(void*) == 8) {
    EXPECT_EQ(sizeof(SharingConfig), 40u);
    EXPECT_EQ(sizeof(CacheConfig), 16u);
    EXPECT_EQ(sizeof(DramConfig), 48u);
    EXPECT_EQ(sizeof(GpuConfig), 224u);
    EXPECT_EQ(sizeof(SmStats), 168u);
    EXPECT_EQ(sizeof(GpuStats), 208u);
    EXPECT_EQ(sizeof(Occupancy), 40u);
    EXPECT_EQ(sizeof(SimResult), 472u);
  }
}

TEST(CodecCoverage, CanonicalKvEnumeratesEveryConfigField) {
  const std::string kv = GpuConfig{}.canonical_kv();
  EXPECT_EQ(kv.compare(0, 13, "gpu_config 2\n"), 0) << kv.substr(0, 13);
  // Header + one "key value\n" line per field: 8 Table-I + 2x4 cache +
  // 7 dram + 5 latencies + 4 structural + 7 sharing + max_cycles + exec_mode.
  const auto lines = static_cast<std::size_t>(std::count(kv.begin(), kv.end(), '\n'));
  EXPECT_EQ(lines, 42u) << kv;
  // Every line is "key value"; keys are unique.
  std::istringstream in(kv);
  std::string line;
  std::vector<std::string> keys;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    keys.push_back(line.substr(0, space));
  }
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end()) << "duplicate keys";
}

TEST(CodecCoverage, ResultFieldsEnumerateEveryStatistic) {
  const std::vector<ResultField>& fields = result_fields();
  EXPECT_EQ(fields.size(), 41u);
  std::size_t flat = 0, derived = 0;
  for (const ResultField& f : fields) {
    flat += f.flat ? 1 : 0;
    derived += f.derived ? 1 : 0;
    // Exactly one getter; setters present iff not derived.
    EXPECT_NE(f.get_u64 == nullptr, f.get_f64 == nullptr) << f.name;
    EXPECT_EQ(f.derived, f.set_u64 == nullptr && f.set_f64 == nullptr) << f.name;
  }
  EXPECT_EQ(flat, 17u);  // + 5 string/point columns = the 22-column flat row
  EXPECT_EQ(derived, 4u);
  EXPECT_EQ(runner::result_columns().size(), 22u);
}

// --- fingerprints ---------------------------------------------------------------

TEST(Fingerprint, IsStableAndHexShaped) {
  const GpuConfig cfg;
  const std::string fp = cfg.fingerprint();
  EXPECT_EQ(fp.size(), 64u);
  EXPECT_EQ(fp.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(fp, GpuConfig{}.fingerprint());
  EXPECT_EQ(fp, sha256_hex(cfg.canonical_kv()));
}

TEST(Fingerprint, EveryConfigFieldReachesTheKey) {
  const std::string base = GpuConfig{}.fingerprint();
  const auto differs = [&](auto mutate) {
    GpuConfig c;
    mutate(c);
    return c.fingerprint() != base;
  };
  EXPECT_TRUE(differs([](GpuConfig& c) { c.num_sms = 15; }));
  EXPECT_TRUE(differs([](GpuConfig& c) { c.registers_per_sm += 1; }));
  EXPECT_TRUE(differs([](GpuConfig& c) { c.scheduler = SchedulerKind::kGto; }));
  EXPECT_TRUE(differs([](GpuConfig& c) { c.l1.mshr_entries = 63; }));
  EXPECT_TRUE(differs([](GpuConfig& c) { c.l2.size_bytes /= 2; }));
  EXPECT_TRUE(differs([](GpuConfig& c) { c.dram.row_window = 5; }));
  EXPECT_TRUE(differs([](GpuConfig& c) { c.alu_latency += 1; }));
  EXPECT_TRUE(differs([](GpuConfig& c) { c.lsu_max_inflight = 95; }));
  EXPECT_TRUE(differs([](GpuConfig& c) { c.sharing.enabled = true; }));
  EXPECT_TRUE(differs([](GpuConfig& c) { c.sharing.threshold_t = 0.25; }));
  EXPECT_TRUE(differs([](GpuConfig& c) { c.sharing.dyn_step = 0.2; }));
  EXPECT_TRUE(differs([](GpuConfig& c) { c.max_cycles = 1000; }));
  // exec_mode is deliberately part of the key: a result cached under one
  // mode must never be served to the other, or the cache would mask exactly
  // the cycle/event divergence grs_fuzz exists to catch.
  EXPECT_TRUE(differs([](GpuConfig& c) { c.exec_mode = ExecMode::kCycle; }));
}

TEST(Fingerprint, KernelChangesReachTheKey) {
  const KernelInfo base = small_kernel(0);
  const std::string fp = cache::kernel_fingerprint(base);
  EXPECT_EQ(fp, cache::kernel_fingerprint(small_kernel(0)));
  EXPECT_NE(fp, cache::kernel_fingerprint(small_kernel(1)));  // different program

  KernelInfo grid = base;
  grid.grid_blocks += 1;
  EXPECT_NE(cache::kernel_fingerprint(grid), fp);

  KernelInfo regs = base;
  regs.resources.regs_per_thread += 1;
  EXPECT_NE(cache::kernel_fingerprint(regs), fp);

  const GpuConfig cfg;
  EXPECT_NE(cache::result_cache_key(cfg, base), cache::result_cache_key(cfg, grid));
  GpuConfig other;
  other.exec_mode = ExecMode::kCycle;
  EXPECT_NE(cache::result_cache_key(cfg, base), cache::result_cache_key(other, base));
  EXPECT_EQ(cache::result_cache_key(cfg, base), cache::result_cache_key(GpuConfig{}, base));
}

/// Canonical .gkd that takes every serializer path: each opcode, an interior
/// register hole, an addressed load, profile blocks with a negative stride
/// and a `cold` reuse bucket, and a name with `"` and `\` to escape.
constexpr const char* kEveryPathGkd = R"(gkd 1
kernel "every \"op\" \\ path"
suite "golden"
set "keys"
threads 192
regs 40
smem 2048
grid 17
lanes 24

segment x3 {
  alu $r0
  alu $r1, $r0
  alu $r2, -, $r1
  sfu $r12, $r2, $r1
  ld.global $r13, coalesced streaming region=2 lines=4096 addr=$r12 profile {
    coalesce 1:90 2:10
    stride -3:5 1:95
    reuse cold:60 2:25 8:15
    footprint 4096
  }
  st.global $r13, strided2 warp-local region=255 lines=64 profile {
    coalesce 2:7
    stride -1:3 16:4
    reuse cold:7
    footprint 64
  }
  ld.shared $r39, smem[2044]
  st.shared $r39, smem[0]
}

segment x1 {
  bar.sync
  exit
}
)";

TEST(Fingerprint, KeysMatchCommittedHex) {
  // Stores restored from earlier commits (CI's restore-keys) stay valid only
  // while these bytes hold. A change here orphans every stored entry.
  EXPECT_EQ(GpuConfig{}.fingerprint(),
            "6e6d6706360a9340cade6607a88c8bccea145dbb2b1e41b9e4e1d178fd4156e3");
  GpuConfig odd;  // a 20-digit integer and a double that is not a short decimal
  odd.max_cycles = UINT64_MAX;
  odd.sharing.threshold_t = 1.0 / 3.0;
  odd.exec_mode = ExecMode::kCycle;
  EXPECT_EQ(odd.fingerprint(),
            "ac38b11b880fe3ec71254dd70bd4fe0c9ebe0ee4717504afe8abcef488cc1eb2");

  const KernelInfo hotspot = workloads::hotspot();
  const GpuConfig shared = configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1);
  EXPECT_EQ(cache::kernel_fingerprint(hotspot),
            "451035f8355475156e31dd12f21a7d222279657db4a456e29bcd72dfe9e4640e");
  EXPECT_EQ(cache::result_cache_key(shared, hotspot),
            "7ee0ad23dcba31e3050841b33ad1de13cd5416d1385f62ea9ec4702f691e008f");

  const KernelInfo every = workloads::gkd::parse(kEveryPathGkd);
  EXPECT_EQ(workloads::gkd::serialize(every), kEveryPathGkd);
  EXPECT_EQ(cache::kernel_fingerprint(every),
            "09b1eeb75c46e253459cb598535cba74fcd01c3fb2fd266d8fd37abf0c0c93a0");
  EXPECT_EQ(cache::result_cache_key(shared, every),
            "09a6afba869cec9943ccad6268e121d2db6c70d617b9affa3092ab8db94daa99");
}

TEST(Fingerprint, MemoMatchesTheFreeFunctions) {
  // 2 kernels x 3 configs, plus an equal copy of the first kernel: a separate
  // object with the same text, which must hit the memo.
  runner::SweepSpec spec;
  const std::vector<runner::ConfigVariant> variants = {
      runner::ConfigVariant::of(configs::unshared()),
      runner::ConfigVariant::of(configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1)),
      runner::ConfigVariant::of(configs::shared_owf(Resource::kScratchpad, 0.5))};
  spec.add_grid(variants, {small_kernel(0), small_kernel(1), small_kernel(0)});

  cache::Fingerprints memo;
  for (const runner::SweepPoint& p : spec.points) {
    const std::string key = cache::result_cache_key(p.config, p.kernel);
    EXPECT_EQ(memo.result_cache_key(p.config, p.kernel), key) << p.variant << " " << p.kernel.name;
    EXPECT_EQ(memo.config_fingerprint(p.config), p.config.fingerprint());
    EXPECT_EQ(memo.kernel_fingerprint(p.kernel), cache::kernel_fingerprint(p.kernel));
  }
  // Distinct kernel texts, the config texts the keys hash (t pinned to 1.0),
  // and the configs as given: none of the three has t = 1.
  EXPECT_EQ(memo.hashed(), 2u + 3u + 3u);
}

TEST(Fingerprint, MemoKeysEachHeaderFieldOverOneSharedProgram) {
  // One program storage under three headers: the memo's kernel identity
  // (storage address + header text) must tell them apart.
  const KernelInfo base = small_kernel(0);
  KernelInfo grid = base;
  grid.grid_blocks += 1;
  KernelInfo renamed = grid;
  renamed.name += "-renamed";
  ASSERT_EQ(grid.program.storage(), base.program.storage());
  ASSERT_EQ(renamed.program.storage(), base.program.storage());

  const GpuConfig cfg = configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1);
  cache::Fingerprints memo;
  const std::string k_base = memo.result_cache_key(cfg, base);
  const std::string k_grid = memo.result_cache_key(cfg, grid);
  const std::string k_renamed = memo.result_cache_key(cfg, renamed);
  EXPECT_EQ(k_base, cache::result_cache_key(cfg, base));
  EXPECT_EQ(k_grid, cache::result_cache_key(cfg, grid));
  EXPECT_EQ(k_renamed, cache::result_cache_key(cfg, renamed));
  EXPECT_NE(k_base, k_grid);
  EXPECT_NE(k_grid, k_renamed);
  EXPECT_EQ(memo.result_cache_key(cfg, base), k_base);  // a hit stays exact
}

TEST(Fingerprint, MemoKeysConfigsThatDifferOnlyInDynStep) {
  const KernelInfo kernel = small_kernel(0);
  const GpuConfig a = configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1);
  GpuConfig b = a;
  b.sharing.dyn_step = 0.2;
  cache::Fingerprints memo;
  const std::string k_a = memo.result_cache_key(a, kernel);
  const std::string k_b = memo.result_cache_key(b, kernel);
  EXPECT_NE(k_a, k_b);
  EXPECT_EQ(k_a, cache::result_cache_key(a, kernel));
  EXPECT_EQ(k_b, cache::result_cache_key(b, kernel));
}

TEST(Fingerprint, CopiedKernelSharesItsProgramStorage) {
  const KernelInfo k = small_kernel(0);
  const KernelInfo copy = k;
  ASSERT_NE(k.program.storage(), nullptr);
  EXPECT_EQ(copy.program.storage(), k.program.storage());
  EXPECT_EQ(&copy.program.segments(), &k.program.segments());
  // An equal kernel built on its own has its own storage and the same key.
  const KernelInfo rebuilt = small_kernel(0);
  EXPECT_NE(rebuilt.program.storage(), k.program.storage());
  EXPECT_EQ(cache::kernel_fingerprint(rebuilt), cache::kernel_fingerprint(k));
}

// --- result codec ---------------------------------------------------------------

TEST(ResultCodec, EncodeDecodeRoundTripsByteIdentically) {
  const SimResult r = simulate(configs::shared_owf_unroll_dyn(Resource::kRegisters),
                               small_kernel(0));
  const std::string payload = encode_result(r);
  EXPECT_EQ(payload.compare(0, 13, "grs-result 1\n"), 0);

  SimResult decoded;
  ASSERT_TRUE(decode_result(payload, decoded));
  EXPECT_EQ(decoded.stats, r.stats);  // field-wise, the cross-mode contract
  EXPECT_EQ(decoded.occupancy.total_blocks, r.occupancy.total_blocks);
  EXPECT_EQ(decoded.occupancy.shared_pairs, r.occupancy.shared_pairs);
  EXPECT_EQ(decoded.occupancy.baseline_waste_percent, r.occupancy.baseline_waste_percent);
  EXPECT_EQ(encode_result(decoded), payload);  // exact re-encode, doubles included
}

TEST(ResultCodec, RejectsAnyDamagedPayload) {
  const SimResult r = simulate(configs::unshared(), small_kernel(0));
  const std::string payload = encode_result(r);
  SimResult out;

  EXPECT_FALSE(decode_result("", out));
  EXPECT_FALSE(decode_result("grs-result 2\n" + payload.substr(13), out));  // version
  EXPECT_FALSE(decode_result(payload.substr(0, payload.size() / 2), out));  // truncated
  EXPECT_FALSE(decode_result(payload.substr(0, payload.size() - 4), out));  // no "end"
  EXPECT_FALSE(decode_result(payload + "extra 1\n", out));                  // trailing data

  // Renaming one field breaks the strict sequential parse.
  std::string renamed = payload;
  const auto pos = renamed.find("cycles ");
  ASSERT_NE(pos, std::string::npos);
  renamed.replace(pos, 6, "cycels");
  EXPECT_FALSE(decode_result(renamed, out));

  // A non-numeric value is rejected, not parsed as zero.
  std::string garbled = payload;
  const auto vpos = garbled.find("cycles ") + 7;
  garbled.replace(vpos, 1, "x");
  EXPECT_FALSE(decode_result(garbled, out));

  // The payload with one field's line replaced by `line`.
  const auto with_line = [&payload](const std::string& field, const std::string& line) {
    std::string p = payload;
    const std::size_t at = p.find('\n' + field + ' ') + 1;
    p.replace(at, p.find('\n', at) - at, line);
    return p;
  };
  // The boundaries still decode: the largest u64 and the largest limiter.
  EXPECT_TRUE(decode_result(with_line("cycles", "cycles 18446744073709551615"), out));
  EXPECT_TRUE(decode_result(with_line("limiter", "limiter 3"), out));
  // A u64 overflow, an empty value, a leading '+', no separating space, a
  // CRLF line, an embedded NUL, an enum out of range, NaN and infinity.
  EXPECT_FALSE(decode_result(with_line("cycles", "cycles 99999999999999999999"), out));
  EXPECT_FALSE(decode_result(with_line("cycles", "cycles 18446744073709551616"), out));
  EXPECT_FALSE(decode_result(with_line("cycles", "cycles "), out));
  EXPECT_FALSE(decode_result(with_line("cycles", "cycles +5"), out));
  EXPECT_FALSE(decode_result(with_line("cycles", "cycles5"), out));
  EXPECT_FALSE(decode_result(with_line("cycles", "cycles 5\r"), out));
  EXPECT_FALSE(decode_result(with_line("cycles", std::string("cycles 5") + '\0' + "5"), out));
  EXPECT_FALSE(decode_result(with_line("limiter", "limiter 4"), out));
  const std::string waste = "baseline_waste_percent";
  EXPECT_FALSE(decode_result(with_line(waste, waste + " nan"), out));
  EXPECT_FALSE(decode_result(with_line(waste, waste + " inf"), out));
  // A double is one whole strtod spelling: no NUL with junk after it and no
  // leading whitespace of any kind.
  EXPECT_TRUE(decode_result(with_line(waste, waste + " 12.5"), out));
  EXPECT_FALSE(decode_result(with_line(waste, waste + " 12.5" + '\0' + "x"), out));
  EXPECT_FALSE(decode_result(with_line(waste, waste + "  12.5"), out));
  EXPECT_FALSE(decode_result(with_line(waste, waste + " \f12.5"), out));
  EXPECT_FALSE(decode_result(with_line(waste, waste + " \v12.5"), out));
  EXPECT_FALSE(decode_result(with_line(waste, waste + " \r12.5"), out));
}

// --- the store ------------------------------------------------------------------

TEST(CacheTest, MissStoreHitRoundTripsByteIdentically) {
  const std::string dir = fresh_store("roundtrip");
  cache::ResultCache store(dir, cache::CacheMode::kReadWrite);

  const GpuConfig cfg = configs::unshared();
  const KernelInfo kernel = small_kernel(0);
  const std::string key = cache::result_cache_key(cfg, kernel);

  SimResult out;
  EXPECT_FALSE(store.lookup(key, nullptr, &out));  // cold: miss

  const SimResult fresh = simulate(cfg, kernel);
  store.store(key, fresh);
  EXPECT_TRUE(fs::exists(store.entry_path(key)));

  std::string payload;
  ASSERT_TRUE(store.lookup(key, &payload, &out));
  EXPECT_EQ(payload, encode_result(fresh));
  EXPECT_EQ(out.stats, fresh.stats);

  const cache::CacheStats s = store.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.corrupt, 0u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.bytes_written, payload.size());
  EXPECT_EQ(s.bytes_read, payload.size());
  EXPECT_NE(s.summary().find("1 hits, 1 misses"), std::string::npos);
}

TEST(CacheTest, CorruptedOrTruncatedEntryIsAMissNotAnError) {
  const std::string dir = fresh_store("corrupt");
  cache::ResultCache store(dir, cache::CacheMode::kReadWrite);
  const GpuConfig cfg = configs::unshared();
  const KernelInfo kernel = small_kernel(0);
  const std::string key = cache::result_cache_key(cfg, kernel);
  store.store(key, simulate(cfg, kernel));

  const std::string path = store.entry_path(key);
  const std::string good = read_file(path).value();

  write_file(path, good.substr(0, good.size() / 3));  // truncated
  EXPECT_FALSE(store.lookup(key, nullptr, nullptr));
  write_file(path, "not a cache entry at all\n");  // scribbled
  EXPECT_FALSE(store.lookup(key, nullptr, nullptr));
  EXPECT_EQ(store.stats().corrupt, 2u);

  // The engine recovers transparently: the damaged entry is re-simulated
  // and re-stored, and the sweep result is unaffected.
  runner::SweepSpec spec;
  spec.add("Unshared-LRR", cfg, kernel);
  cache::CacheStats stats;
  const auto rows =
      runner::run_sweep(spec, cached_options(dir, cache::CacheMode::kReadWrite, &stats));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(stats.corrupt, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(read_file(path).value(), good);  // healed back to the canonical payload
}

TEST(CacheTest, DirectoryAtEntryPathIsCorrupt) {
  const std::string dir = fresh_store("dir_entry");
  cache::ResultCache store(dir, cache::CacheMode::kReadWrite);
  const std::string key = cache::result_cache_key(configs::unshared(), small_kernel(0));
  fs::create_directories(store.entry_path(key));

  std::string payload;
  SimResult out;
  EXPECT_FALSE(store.lookup(key, &payload, &out));
  const cache::CacheStats s = store.stats();
  EXPECT_EQ(s.corrupt, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.bytes_read, 0u);
}

TEST(CacheTest, OffModeNeverConsultsTheStore) {
  // grs_fuzz relies on this: with mode off the engine must not open, read,
  // or create the store even when cache_dir points somewhere real.
  const std::string dir = fresh_store("offmode");
  const GpuConfig cfg = configs::unshared();
  const KernelInfo kernel = small_kernel(0);
  const std::string key = cache::result_cache_key(cfg, kernel);

  // Poison the store: a decodable entry whose cycles are absurd. If any
  // off-mode path consulted the cache, the poisoned cycles would leak into
  // the sweep rows below.
  {
    cache::ResultCache store(dir, cache::CacheMode::kReadWrite);
    SimResult poisoned = simulate(cfg, kernel);
    poisoned.stats.cycles = 424242;
    store.store(key, poisoned);
  }

  runner::SweepSpec spec;
  spec.add("Unshared-LRR", cfg, kernel);
  cache::CacheStats stats;
  const auto rows = runner::run_sweep(spec, cached_options(dir, cache::CacheMode::kOff, &stats));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].result.stats.cycles, 424242u);
  EXPECT_EQ(rows[0].result.stats, simulate(cfg, kernel).stats);
  EXPECT_EQ(stats.hits + stats.misses + stats.stores + stats.bytes_read, 0u);

  // And with no directory at all, off mode must not create one.
  const std::string absent = fresh_store("offmode_absent");
  (void)runner::run_sweep(spec, cached_options(absent, cache::CacheMode::kOff));
  EXPECT_FALSE(fs::exists(absent));
}

TEST(CacheTest, WarmSweepIsAllHitsAndByteIdentical) {
  const std::string dir = fresh_store("warm");
  const runner::SweepSpec spec = tiny_spec();

  cache::CacheStats cold;
  const std::string cold_csv =
      csv_of(runner::run_sweep(spec, cached_options(dir, cache::CacheMode::kReadWrite, &cold)));
  EXPECT_EQ(cold.misses, spec.size());
  EXPECT_EQ(cold.stores, spec.size());
  EXPECT_EQ(cold.hits, 0u);

  cache::CacheStats warm;
  const std::string warm_csv =
      csv_of(runner::run_sweep(spec, cached_options(dir, cache::CacheMode::kReadWrite, &warm)));
  EXPECT_EQ(warm.hits, spec.size());
  EXPECT_EQ(warm.misses, 0u);
  EXPECT_EQ(warm.stores, 0u);
  EXPECT_EQ(warm_csv, cold_csv);

  // Read-only mode on a cold key simulates but leaves the store untouched.
  const std::string ro_dir = fresh_store("readonly");
  cache::CacheStats ro;
  const std::string ro_csv =
      csv_of(runner::run_sweep(spec, cached_options(ro_dir, cache::CacheMode::kRead, &ro)));
  EXPECT_EQ(ro.misses, spec.size());
  EXPECT_EQ(ro.stores, 0u);
  EXPECT_EQ(ro_csv, cold_csv);
}

TEST(CacheTest, OneEntryServesEveryThresholdOfAMachine) {
  // At t = 1.0 and t = 0.9 this kernel resolves to one launch plan but for
  // the pre-cap diagnostic eq4_blocks (2 and 3): one machine, one entry.
  const std::string dir = fresh_store("one_entry");
  KernelInfo kernel =
      workloads::gen::generate(workloads::gen::study_profile({44, 6144, 0, 32}), 1);
  kernel.grid_blocks = 28;
  const GpuConfig t09 = study::family_config(Resource::kRegisters, 10);
  ASSERT_EQ(compute_occupancy(study::family_config(Resource::kRegisters, 0), kernel.resources)
                .eq4_blocks,
            2u);
  ASSERT_EQ(compute_occupancy(t09, kernel.resources).eq4_blocks, 3u);
  const auto sweep = [&](double percent, cache::CacheMode mode, cache::CacheStats* stats) {
    runner::SweepSpec spec;
    spec.add(study::variant_label(Resource::kRegisters, percent),
             study::family_config(Resource::kRegisters, percent), kernel);
    return runner::run_sweep(spec, cached_options(dir, mode, stats));
  };

  cache::CacheStats cold;
  (void)sweep(0, cache::CacheMode::kReadWrite, &cold);
  EXPECT_EQ(cold.stores, 1u);

  // The t = 0.9 point hits the t = 1.0 entry and still gets its own plan.
  cache::CacheStats warm;
  const std::vector<runner::SweepRow> rows = sweep(10, cache::CacheMode::kReadWrite, &warm);
  EXPECT_EQ(warm.hits, 1u);
  EXPECT_EQ(warm.misses, 0u);
  EXPECT_EQ(warm.stores, 0u);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].from_cache);
  EXPECT_EQ(rows[0].result.occupancy.eq4_blocks, 3u);
  EXPECT_EQ(encode_result(rows[0].result), encode_result(simulate(t09, kernel)));

  cache::CacheStats verify;
  (void)sweep(10, cache::CacheMode::kVerify, &verify);
  EXPECT_EQ(verify.verified, 1u);
  EXPECT_EQ(verify.verify_failures, 0u);
}

TEST(CacheTest, ProfiledSweepsCountEachTextHashedOnce) {
  const std::string dir = fresh_store("fingerprints_hashed");
  const runner::SweepSpec spec = tiny_spec();  // 2 configs x 2 kernels, t = 0.1
  const auto hashed = [&spec](const std::string& store, cache::CacheMode mode) {
    prof::HostProfiler prof;
    runner::RunOptions o = cached_options(store, mode);
    o.prof = &prof;
    (void)runner::run_sweep(spec, o);
    return prof.fingerprints_hashed();
  };
  // One key per point hashes the 2 kernels and the 2 configs with t pinned to
  // 1.0, not 2 x 4 points, whether the sweep is cold, warm or uncached.
  EXPECT_EQ(hashed(dir, cache::CacheMode::kReadWrite), 4u);
  EXPECT_EQ(hashed(dir, cache::CacheMode::kReadWrite), 4u);
  EXPECT_EQ(hashed(dir, cache::CacheMode::kOff), 4u);
}

TEST(CacheTest, ConcurrentWritersOfOneKeyLandOneWellFormedEntry) {
  const std::string dir = fresh_store("race");
  cache::ResultCache store(dir, cache::CacheMode::kReadWrite);
  const GpuConfig cfg = configs::unshared();
  const KernelInfo kernel = small_kernel(0);
  const std::string key = cache::result_cache_key(cfg, kernel);
  const SimResult fresh = simulate(cfg, kernel);

  std::vector<std::thread> writers;
  writers.reserve(8);
  for (int i = 0; i < 8; ++i)
    writers.emplace_back([&] {
      for (int j = 0; j < 16; ++j) store.store(key, fresh);
    });
  for (std::thread& t : writers) t.join();

  std::string payload;
  ASSERT_TRUE(store.lookup(key, &payload, nullptr));
  EXPECT_EQ(payload, encode_result(fresh));

  // Readers only ever saw absent-or-complete: no temp files survive, and the
  // entry's directory holds exactly the one published file.
  std::size_t files = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    ++files;
    EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos) << e.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST(CacheTest, VerifyModePassesOnHonestStoreAndThrowsOnPoison) {
  const std::string dir = fresh_store("verify");
  const runner::SweepSpec spec = tiny_spec();
  (void)runner::run_sweep(spec, cached_options(dir, cache::CacheMode::kReadWrite));

  // Honest store: every hit re-simulates and serves the same stats (tiny_spec's
  // 4 points are 4 machines).
  cache::CacheStats honest;
  const auto rows =
      runner::run_sweep(spec, cached_options(dir, cache::CacheMode::kVerify, &honest));
  EXPECT_EQ(rows.size(), spec.size());
  EXPECT_EQ(honest.verified, spec.size());
  EXPECT_EQ(honest.verify_failures, 0u);

  // Poison one entry with a *valid, decodable* payload from a different
  // point; plain readwrite would happily serve it, verify must not.
  cache::ResultCache store(dir, cache::CacheMode::kReadWrite);
  const runner::SweepPoint& a = spec.points.front();
  const runner::SweepPoint& b = spec.points.back();
  const std::string key_a = cache::result_cache_key(a.config, a.kernel);
  std::string payload_b;
  ASSERT_TRUE(store.lookup(cache::result_cache_key(b.config, b.kernel), &payload_b, nullptr));
  write_file(store.entry_path(key_a), payload_b);

  cache::CacheStats poisoned;
  EXPECT_THROW(
      (void)runner::run_sweep(spec, cached_options(dir, cache::CacheMode::kVerify, &poisoned)),
      std::runtime_error);
  // The throwing sweep still publishes its counters.
  EXPECT_EQ(poisoned.verify_failures, 1u);
}

TEST(CacheTest, VerifyChecksEveryMemberOfAMergedMachine) {
  // One kernel on the register-sharing line at five thresholds. Some resolve
  // to the same launch plan, so the engine simulates them as one machine.
  const std::string dir = fresh_store("verify_members");
  const KernelInfo kernel = small_kernel(0);
  runner::SweepSpec spec;
  for (const double t : {1.0, 0.9, 0.7, 0.5, 0.1})
    spec.add("t=" + std::to_string(t), configs::shared_owf_unroll_dyn(Resource::kRegisters, t),
             kernel);
  (void)runner::run_sweep(spec, cached_options(dir, cache::CacheMode::kReadWrite));

  // The distinct machines, and a point that is not the first of its machine.
  std::vector<std::string> machines;
  std::size_t member = spec.size();
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const std::string m = cache::result_cache_key(spec.points[i].config, kernel);
    if (std::find(machines.begin(), machines.end(), m) == machines.end())
      machines.push_back(m);
    else if (member == spec.size())
      member = i;
  }
  ASSERT_LT(member, spec.size()) << "no two thresholds share a machine";
  ASSERT_EQ(machines.size(), 2u);

  // Untouched store: each machine's one entry verifies against one
  // simulation, so verified counts machines, not points.
  cache::CacheStats honest;
  prof::HostProfiler prof;
  runner::RunOptions verify = cached_options(dir, cache::CacheMode::kVerify, &honest);
  verify.prof = &prof;
  (void)runner::run_sweep(spec, verify);
  EXPECT_EQ(honest.verified, machines.size());
  EXPECT_EQ(honest.verify_failures, 0u);
  EXPECT_EQ(prof.calls(prof::Phase::kSimulate), machines.size());

  // A well-formed entry that differs in one stat: the one entry the
  // non-leading member shares with its leader.
  const runner::SweepPoint& p = spec.points[member];
  const std::string path = cache::ResultCache(dir, cache::CacheMode::kRead)
                               .entry_path(cache::result_cache_key(p.config, p.kernel));
  SimResult tampered;
  ASSERT_TRUE(decode_result(read_file(path).value(), tampered));
  tampered.stats.cycles += 1;
  write_file(path, encode_result(tampered));
  try {
    (void)runner::run_sweep(spec, cached_options(dir, cache::CacheMode::kVerify));
    ADD_FAILURE() << "verify accepted a tampered member entry";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

// --- shared CLI options ---------------------------------------------------------

TEST(CliOptions, StrictParsingAndCrossFlagValidation) {
  constexpr runner::CommonFlagSet kAll{true, true};
  runner::CommonOptions opts;
  const auto feed = [&](const std::string& flag, const std::string& value) {
    return runner::parse_common_flag(opts, kAll, flag, [&] { return value; });
  };

  EXPECT_TRUE(feed("--threads", "7"));
  EXPECT_EQ(opts.threads, 7u);
  EXPECT_THROW((void)feed("--threads", "many"), runner::UsageError);
  EXPECT_THROW((void)feed("--cache", ""), runner::UsageError);
  EXPECT_THROW((void)feed("--cache-mode", "sideways"), runner::UsageError);
  EXPECT_FALSE(feed("--not-a-shared-flag", ""));
  // The cache summary prints on every cache-enabled run; there is no flag for it.
  EXPECT_FALSE(feed("--cache-stats", ""));

  // --cache-mode without --cache is rejected, not ignored.
  EXPECT_TRUE(feed("--cache-mode", "verify"));
  EXPECT_THROW(opts.finalize(), runner::UsageError);
  EXPECT_TRUE(feed("--cache", "/tmp/store"));
  EXPECT_NO_THROW(opts.finalize());
  EXPECT_TRUE(opts.cache_enabled());
  EXPECT_EQ(opts.cache_mode, cache::CacheMode::kVerify);

  cache::CacheStats stats;
  const runner::RunOptions run = opts.run_options(&stats);
  EXPECT_EQ(run.threads, 7u);
  EXPECT_EQ(run.cache_dir, "/tmp/store");
  EXPECT_EQ(run.cache_mode, cache::CacheMode::kVerify);
  EXPECT_EQ(run.cache_stats, &stats);

  // Without --cache the engine options stay fully off.
  const runner::RunOptions off = runner::CommonOptions{}.run_options(nullptr);
  EXPECT_TRUE(off.cache_dir.empty());
  EXPECT_EQ(off.cache_mode, cache::CacheMode::kOff);

  // One help source mentions every cache flag (check_docs.sh keys off this).
  const std::string help = runner::common_options_help(kAll);
  for (const char* flag : {"--threads", "--filter", "--out", "--json", "--cache",
                           "--cache-mode"})
    EXPECT_NE(help.find(flag), std::string::npos) << flag;
  EXPECT_EQ(help.find("--cache-stats"), std::string::npos);

  EXPECT_EQ(cache::parse_cache_mode("readwrite"), cache::CacheMode::kReadWrite);
  EXPECT_EQ(cache::parse_cache_mode("off"), cache::CacheMode::kOff);
  EXPECT_EQ(cache::parse_cache_mode("Read"), std::nullopt);
}

// --- sink goldens ---------------------------------------------------------------

// Captured from the sinks BEFORE they were refitted onto result_fields();
// the codec-driven schema must reproduce these bytes exactly.
runner::SweepRow golden_row() {
  runner::SweepRow row;
  row.point.variant = "Shared-OWF-Unroll-Dyn";
  row.point.kernel.name = "golden,kernel \"q\"";
  row.point.kernel.set = "set1";
  row.point.kernel.suite = "RODINIA";
  row.point.kernel.grid_blocks = 252;
  SimResult& r = row.result;
  r.occupancy.total_blocks = 5;
  r.occupancy.baseline_blocks = 4;
  r.occupancy.shared_pairs = 1;
  r.stats.cycles = 123457;
  SmStats& sm = r.stats.sm_total;
  sm.issued_cycles = 1111;
  sm.stall_cycles = 222;
  sm.idle_cycles = 3333;
  sm.warp_instructions = 44444;
  sm.thread_instructions = 555555;
  sm.l1_accesses = 1000;
  sm.l1_misses = 125;
  sm.lock_acquisitions = 17;
  sm.lock_wait_cycles = 18;
  sm.dyn_throttled_issues = 19;
  r.stats.l2_accesses = 640;
  r.stats.l2_misses = 80;
  r.stats.dram_requests = 77;
  return row;
}

TEST(SinkGolden, CsvBytesAreUnchangedByTheCodecRefit) {
  runner::SweepRow row2 = golden_row();
  row2.point.variant = "Unshared-LRR";
  row2.point.kernel.name = "plain";
  std::ostringstream os;
  runner::CsvSink csv(os);
  csv.begin();
  csv.add("goldbench", golden_row());
  csv.add("goldbench", row2);
  csv.end();
  EXPECT_EQ(
      os.str(),
      "bench,variant,kernel,set,grid_blocks,blocks_per_sm,baseline_blocks,shared_pairs,"
      "cycles,ipc,warp_ipc,issued_cycles,stall_cycles,idle_cycles,warp_instructions,"
      "thread_instructions,l1_miss_rate,l2_miss_rate,dram_requests,lock_acquisitions,"
      "lock_wait_cycles,dyn_throttled_issues\n"
      "goldbench,Shared-OWF-Unroll-Dyn,\"golden,kernel \"\"q\"\"\",set1,252,5,4,1,123457,"
      "4.499988,0.359996,1111,222,3333,44444,555555,0.125000,0.125000,77,17,18,19\n"
      "goldbench,Unshared-LRR,plain,set1,252,5,4,1,123457,4.499988,0.359996,1111,222,3333,"
      "44444,555555,0.125000,0.125000,77,17,18,19\n");
}

TEST(SinkGolden, JsonBytesAreUnchangedByTheCodecRefit) {
  std::ostringstream os;
  runner::JsonSink json(os);
  json.begin();
  json.add("goldbench", golden_row());
  json.end();
  EXPECT_EQ(
      os.str(),
      "[\n"
      "  {\"bench\": \"goldbench\", \"variant\": \"Shared-OWF-Unroll-Dyn\", "
      "\"kernel\": \"golden,kernel \\\"q\\\"\", \"set\": \"set1\", \"grid_blocks\": 252, "
      "\"blocks_per_sm\": 5, \"baseline_blocks\": 4, \"shared_pairs\": 1, "
      "\"cycles\": 123457, \"ipc\": 4.499988, \"warp_ipc\": 0.359996, "
      "\"issued_cycles\": 1111, \"stall_cycles\": 222, \"idle_cycles\": 3333, "
      "\"warp_instructions\": 44444, \"thread_instructions\": 555555, "
      "\"l1_miss_rate\": 0.125000, \"l2_miss_rate\": 0.125000, \"dram_requests\": 77, "
      "\"lock_acquisitions\": 17, \"lock_wait_cycles\": 18, \"dyn_throttled_issues\": 19}\n"
      "]\n");
}

}  // namespace
}  // namespace grs
