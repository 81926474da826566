// Randomized determinism harness for the campaign engine.
//
// The hand-picked plans in core_engine_parallel_test pin the determinism
// contract down at a few points; this suite exercises it across a seeded
// family of ~30 generated plans (varying factor counts, cell sizes,
// replicate counts, sampled factors) and asserts that the raw CSV and the
// opaque summary CSV are byte-identical across every combination of
// thread count {1, 2, 3, 8} and sink batch {1, 7, 4096}.  A failure here
// means some execution schedule -- window boundary, worker count, pool
// wake order -- leaked into the archived bytes, which is exactly the
// class of bug the paper's reproducibility requirement forbids.
//
// A second test cross-checks the engine's streamed Welford aggregation
// against a naive two-pass mean/sd reference on the same samples.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace cal {
namespace {

/// Generates a random-but-seeded plan: 1-3 level factors with 1-3 levels
/// each, sometimes a sampled log-uniform factor, 1-5 replicates,
/// randomized order.  Worst case ~270 runs, typically a few dozen.
Plan random_plan(Rng& gen, std::uint64_t plan_seed) {
  DesignBuilder builder(plan_seed);
  const std::int64_t n_factors = gen.uniform_int(1, 3);
  for (std::int64_t f = 0; f < n_factors; ++f) {
    const std::int64_t n_levels = gen.uniform_int(1, 3);
    std::vector<Value> levels;
    for (std::int64_t l = 0; l < n_levels; ++l) {
      levels.push_back(Value((f + 1) * 1000 + gen.uniform_int(1, 512)));
    }
    builder.add(Factor::levels("f" + std::to_string(f), levels));
  }
  if (gen.bernoulli(0.3)) {
    builder.add(Factor::log_uniform_int("sampled", 1, 65536));
    builder.samples_per_cell(
        static_cast<std::size_t>(gen.uniform_int(1, 2)));
  }
  builder.replications(static_cast<std::size_t>(gen.uniform_int(1, 5)));
  builder.randomize(true);
  return builder.build();
}

/// Stationary two-metric measurement: depends only on the planned run
/// and its private stream (the engine's parallel determinism contract).
MeasureResult property_measure(const PlannedRun& run, MeasureContext& ctx) {
  double base = 1.0;
  for (const auto& v : run.values) base += v.as_real() * 1e-3;
  const double noisy = base * ctx.rng->lognormal_factor(0.25);
  const double second =
      ctx.rng->normal(0.0, 1.0) + static_cast<double>(run.cell_index);
  return MeasureResult{{noisy, second}, 1e-6 * (1.0 + ctx.rng->uniform())};
}

Engine make_engine(std::size_t threads, std::size_t sink_batch) {
  Engine::Options options;
  options.seed = 20260726;
  options.threads = threads;
  options.sink_batch = sink_batch;
  return Engine({"noisy", "second"}, options);
}

std::string raw_csv(const Plan& plan, std::size_t threads,
                    std::size_t sink_batch) {
  std::ostringstream out;
  make_engine(threads, sink_batch).run(plan, property_measure).write_csv(out);
  return out.str();
}

std::string opaque_csv(const Plan& plan, std::size_t threads,
                       std::size_t sink_batch) {
  std::ostringstream out;
  make_engine(threads, sink_batch)
      .run_opaque(plan, property_measure)
      .write_csv(out);
  return out.str();
}

TEST(EngineProperty, RawAndOpaqueCsvBitIdenticalAcrossThreadsAndBatches) {
  Rng gen(0xCA11B325);
  const std::size_t kPlans = 30;
  const std::size_t thread_counts[] = {1, 2, 3, 8};
  const std::size_t batches[] = {1, 7, 4096};
  for (std::size_t p = 0; p < kPlans; ++p) {
    const Plan plan = random_plan(gen, 1000 + p);
    ASSERT_GT(plan.size(), 0u);
    const std::string ref_raw = raw_csv(plan, 1, 4096);
    const std::string ref_opaque = opaque_csv(plan, 1, 4096);
    for (const std::size_t threads : thread_counts) {
      for (const std::size_t batch : batches) {
        EXPECT_EQ(raw_csv(plan, threads, batch), ref_raw)
            << "raw CSV diverged: plan " << p << " (" << plan.size()
            << " runs), threads=" << threads << ", sink_batch=" << batch;
        EXPECT_EQ(opaque_csv(plan, threads, batch), ref_opaque)
            << "opaque CSV diverged: plan " << p << " (" << plan.size()
            << " runs), threads=" << threads << ", sink_batch=" << batch;
      }
    }
  }
}

TEST(EngineProperty, OpaqueWindowSizeDoesNotChangeSummaries) {
  Rng gen(0x0B5C0DE);
  for (std::size_t p = 0; p < 6; ++p) {
    const Plan plan = random_plan(gen, 2000 + p);
    const std::string ref = opaque_csv(plan, 1, 4096);
    // sink_batch sets the opaque window size too.
    for (const std::size_t window : {std::size_t{1}, std::size_t{3},
                                     std::size_t{1000}}) {
      EXPECT_EQ(opaque_csv(plan, 4, window), ref)
          << "plan " << p << ", sink_batch=" << window;
    }
  }
}

/// Streamed Welford vs a naive two-pass reference on the identical
/// samples, captured from a sequential opaque sweep.  Tolerance 1e-12
/// (relative); single-sample cells must report sd == 0 exactly -- the
/// seed behavior, with no NaN from the n-1 denominator.
TEST(EngineProperty, StreamedWelfordMatchesTwoPassReference) {
  Rng gen(0x7E57);
  for (std::size_t p = 0; p < 10; ++p) {
    // Plan 7 forces single-sample cells (1 replicate, no sampled factor).
    Plan plan = p == 7 ? DesignBuilder(42)
                             .add(Factor::levels("x", {Value(1), Value(2),
                                                       Value(3)}))
                             .replications(1)
                             .build()
                       : random_plan(gen, 3000 + p);

    // Capture every metric vector per cell, in sweep order, from the
    // same sequential execution whose summary we check.
    std::map<std::size_t, std::vector<std::vector<double>>> samples;
    Engine engine({"noisy", "second"}, Engine::Options{});
    const OpaqueSummary summary = engine.run_opaque(
        plan, [&samples](const PlannedRun& run, MeasureContext& ctx) {
          MeasureResult result = property_measure(run, ctx);
          samples[run.cell_index].push_back(result.metrics);
          return result;
        });

    ASSERT_EQ(summary.cells.size(), samples.size()) << "plan " << p;
    auto it = samples.begin();
    for (const auto& cell : summary.cells) {
      const auto& observed = it->second;
      ++it;
      ASSERT_EQ(cell.n, observed.size());
      for (std::size_t m = 0; m < summary.metric_names.size(); ++m) {
        // Two-pass reference: exact mean first, then centered squares.
        double sum = 0.0;
        for (const auto& metrics : observed) sum += metrics[m];
        const double mean = sum / static_cast<double>(observed.size());
        double ss = 0.0;
        for (const auto& metrics : observed) {
          ss += (metrics[m] - mean) * (metrics[m] - mean);
        }
        const double sd =
            observed.size() > 1
                ? std::sqrt(ss / static_cast<double>(observed.size() - 1))
                : 0.0;

        const double mean_tol = 1e-12 * std::max(1.0, std::abs(mean));
        const double sd_tol = 1e-12 * std::max(1.0, std::abs(sd));
        EXPECT_NEAR(cell.mean[m], mean, mean_tol) << "plan " << p;
        EXPECT_NEAR(cell.sd[m], sd, sd_tol) << "plan " << p;
        EXPECT_FALSE(std::isnan(cell.sd[m]))
            << "plan " << p << ": single-sample sd must stay 0, not NaN";
        if (cell.n == 1) EXPECT_EQ(cell.sd[m], 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace cal
