// Google-benchmark micro-benchmarks of the simulator itself: cost of the
// building blocks (cache lookups, DRAM requests, occupancy math, program
// cursors) and end-to-end simulation throughput. These guard against
// performance regressions in the simulator, not the paper's results.
#include <benchmark/benchmark.h>

#include "common/config.h"
#include "core/occupancy.h"
#include "gpu/simulator.h"
#include "isa/builder.h"
#include "memory/cache.h"
#include "memory/dram.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "workloads/suites.h"

namespace grs {
namespace {

void BM_CacheLookupHit(benchmark::State& state) {
  Cache c(CacheConfig{});
  (void)c.lookup(0, 0);
  c.fill_inflight(0, 1);
  c.drain(2);
  Cycle now = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.lookup(0, now++));
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheMissFill(benchmark::State& state) {
  Cache c(CacheConfig{});
  Addr a = 0;
  Cycle now = 0;
  for (auto _ : state) {
    const auto r = c.lookup(a, now);
    if (!r.hit && !r.mshr_merge && !r.mshr_full) c.fill_inflight(a, now + 10);
    a += 128;
    now += 20;  // keeps the MSHR draining
  }
}
BENCHMARK(BM_CacheMissFill);

/// The miss path under a loaded MSHR, as a memory-bound SM step sees it: a
/// drain, a next_ready() wakeup query and a lookup, with ready cycles 400-496
/// ahead so that 50 to 62 misses stay in flight.
void BM_CacheLoadedMshr(benchmark::State& state) {
  Cache c(CacheConfig{});
  Addr a = 0;
  Cycle now = 0;
  for (auto _ : state) {
    c.drain(now);
    benchmark::DoNotOptimize(c.next_ready());
    const auto r = c.lookup(a, now);
    if (!r.hit && !r.mshr_merge && !r.mshr_full) c.fill_inflight(a, now + 400 + (a / 128) % 97);
    a += 128;
    now += 8;
  }
}
BENCHMARK(BM_CacheLoadedMshr);

void BM_DramRequest(benchmark::State& state) {
  Dram d(DramConfig{}, 128);
  Addr a = 0;
  Cycle now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.request(a, now));
    a += 128;
    ++now;
  }
}
BENCHMARK(BM_DramRequest);

void BM_Occupancy(benchmark::State& state) {
  const GpuConfig cfg = configs::shared_owf_unroll_dyn(Resource::kRegisters);
  const KernelResources res{256, 36, 512};
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_occupancy(cfg, res));
  }
}
BENCHMARK(BM_Occupancy);

void BM_ProgramCursor(benchmark::State& state) {
  const Program p = workloads::hotspot().program;
  for (auto _ : state) {
    ProgramCursor c(p);
    std::uint64_t n = 0;
    while (c.peek(p) != nullptr) {
      c.advance(p);
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_ProgramCursor);

/// End-to-end: cycles simulated per wall second on a small grid.
void BM_EndToEndSim(benchmark::State& state) {
  KernelInfo k = workloads::hotspot();
  k.grid_blocks = 42;
  const GpuConfig cfg = configs::shared_owf_unroll_dyn(Resource::kRegisters);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const SimResult r = simulate(cfg, k);
    cycles += r.stats.cycles;
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndSim)->Unit(benchmark::kMillisecond);

/// Execution-mode speedup table: the same kernel under the naive cycle loop
/// (arg 0) and the event-driven loop (arg 1). Both produce bit-identical
/// statistics (tests/test_equivalence.cc); the ratio of these two rows is
/// the cycle-skipping speedup. hotspot is compute-leaning, b+tree is the
/// memory-bound case where skipping pays most.
void BM_ExecModeHotspot(benchmark::State& state) {
  KernelInfo k = workloads::hotspot();
  k.grid_blocks = 42;
  GpuConfig cfg = configs::unshared();
  cfg.exec_mode = state.range(0) == 0 ? ExecMode::kCycle : ExecMode::kEvent;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(cfg, k).stats.cycles);
  }
  state.SetLabel(to_string(cfg.exec_mode));
}
BENCHMARK(BM_ExecModeHotspot)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Observability tax: full event tracing into a counting sink — the opt-in
/// price of --trace. Its base is BM_EndToEndSim, the same kernel and config
/// with tracing off.
void BM_TraceOn(benchmark::State& state) {
  KernelInfo k = workloads::hotspot();
  k.grid_blocks = 42;
  const GpuConfig cfg = configs::shared_owf_unroll_dyn(Resource::kRegisters);
  obs::ObsOptions opts;
  std::uint64_t events = 0;
  for (auto _ : state) {
    obs::NullTraceSink sink;
    obs::SimObserver observer(opts, &sink);
    benchmark::DoNotOptimize(simulate(cfg, k, &observer).stats.cycles);
    events += sink.events();
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceOn)->Unit(benchmark::kMillisecond);

void BM_ExecModeBtree(benchmark::State& state) {
  KernelInfo k = workloads::btree();
  k.grid_blocks = 84;
  GpuConfig cfg = configs::unshared();
  cfg.exec_mode = state.range(0) == 0 ? ExecMode::kCycle : ExecMode::kEvent;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(cfg, k).stats.cycles);
  }
  state.SetLabel(to_string(cfg.exec_mode));
}
BENCHMARK(BM_ExecModeBtree)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace grs

BENCHMARK_MAIN();
