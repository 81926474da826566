// Library micro-benchmarks (google-benchmark): throughput of the
// simulation and analysis kernels that dominate campaign runtime.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/design.hpp"
#include "core/rng.hpp"
#include "sim/machine.hpp"
#include "sim/mem/hierarchy.hpp"
#include "sim/mem/stride_bench.hpp"
#include "stats/breakpoint.hpp"
#include "stats/descriptive.hpp"
#include "stats/loess.hpp"

namespace {

using namespace cal;

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_RngLogUniform(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.log_uniform(1.0, 1e6));
  }
}
BENCHMARK(BM_RngLogUniform);

void BM_DesignBuild(benchmark::State& state) {
  const auto cells = state.range(0);
  for (auto _ : state) {
    std::vector<Value> levels;
    for (std::int64_t i = 0; i < cells; ++i) levels.push_back(Value(i));
    Plan plan = DesignBuilder(7)
                    .add(Factor::levels("size", levels))
                    .add(Factor::levels("stride", {Value(1), Value(2)}))
                    .replications(42)
                    .build();
    benchmark::DoNotOptimize(plan.size());
  }
  state.SetItemsProcessed(state.iterations() * cells * 2 * 42);
}
BENCHMARK(BM_DesignBuild)->Arg(8)->Arg(64);

void BM_CacheAccess(benchmark::State& state) {
  sim::mem::Cache cache({"L1", 32 * 1024, 64, 8, 8.0});
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr));
    addr += 64;
    if (addr >= 128 * 1024) addr = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/// A buffer of `bytes` on consecutive page frames.
sim::mem::Buffer sequential_buffer(std::size_t bytes) {
  std::vector<std::uint32_t> frames;
  for (std::uint32_t i = 0; i * std::size_t{4096} < bytes; ++i) {
    frames.push_back(i);
  }
  return sim::mem::Buffer(frames, 4096, bytes);
}

/// Args: buffer bytes, stride bytes.  The 8 B stride collapses seven of
/// every eight accesses into one counted run (the collapsed cost); the
/// 64 B line stride walks the hierarchy on every access (the per-walk
/// cost).  One warm pass per iteration.
void BM_HierarchyStreamPass(benchmark::State& state) {
  const auto machine = sim::machines::core_i7_2600();
  sim::mem::Hierarchy hierarchy(machine);
  const sim::mem::Buffer buffer = sequential_buffer(state.range(0));
  const std::size_t stride = static_cast<std::size_t>(state.range(1));
  const std::size_t count = state.range(0) / stride;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy.stream_pass(buffer, stride, count));
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_HierarchyStreamPass)
    ->Args({16 * 1024, 8})
    ->Args({128 * 1024, 8})
    ->Args({4 * 1024 * 1024, 8})
    ->Args({16 * 1024 * 1024, 8})
    ->Args({16 * 1024, 64})
    ->Args({128 * 1024, 64})
    ->Args({4 * 1024 * 1024, 64})
    ->Args({16 * 1024 * 1024, 64});

/// Args as above.  Both passes of a measurement (cold + steady) per
/// iteration, in closed form; items are the accesses of one pass.
void BM_SteadyStateCost(benchmark::State& state) {
  const auto machine = sim::machines::core_i7_2600();
  sim::mem::Hierarchy hierarchy(machine);
  const sim::mem::Buffer buffer = sequential_buffer(state.range(0));
  const std::size_t stride = static_cast<std::size_t>(state.range(1));
  const std::size_t count = state.range(0) / stride;
  sim::mem::Hierarchy::SteadyCost cost;
  for (auto _ : state) {
    hierarchy.steady_state_cost(buffer, stride, count, cost);
    benchmark::DoNotOptimize(cost.steady.stall_cycles);
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_SteadyStateCost)
    ->Args({16 * 1024, 8})
    ->Args({4 * 1024 * 1024, 8})
    ->Args({16 * 1024 * 1024, 8})
    ->Args({16 * 1024, 64})
    ->Args({4 * 1024 * 1024, 64})
    ->Args({16 * 1024 * 1024, 64});

void BM_MemSystemMeasure(benchmark::State& state) {
  sim::mem::MemSystemConfig config;
  config.machine = sim::machines::core_i7_2600();
  config.enable_noise = false;
  sim::mem::MemSystem system(config);
  Rng rng(3);
  double now = 0.0;
  for (auto _ : state) {
    const auto out = system.measure({32 * 1024, 1, {4, 1}, 100}, now, rng);
    benchmark::DoNotOptimize(out.bandwidth_mbps);
    now += out.elapsed_s;
  }
}
BENCHMARK(BM_MemSystemMeasure);

void BM_Quantile(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> xs;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    xs.push_back(rng.uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::quantile(xs, 0.25));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Quantile)->Arg(1000)->Arg(100000);

void BM_SegmentedLeastSquares(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> xs, ys;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const double x = static_cast<double>(i);
    xs.push_back(x);
    ys.push_back((x < 100 ? 0.1 * x : 10 + 0.5 * (x - 100)) +
                 rng.normal(0.0, 0.5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::segmented_least_squares(xs, ys));
  }
}
BENCHMARK(BM_SegmentedLeastSquares)->Arg(128)->Arg(512);

void BM_Loess(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> xs, ys;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    xs.push_back(rng.uniform(0.0, 100.0));
    ys.push_back(xs.back() * 2.0 + rng.normal(0.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::loess_curve(xs, ys, 32));
  }
}
BENCHMARK(BM_Loess)->Arg(1000)->Arg(4000);

}  // namespace
