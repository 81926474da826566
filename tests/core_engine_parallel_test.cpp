// Determinism suite for the parallel campaign engine: pooled, pipelined
// execution must be bit-identical to sequential execution at any thread
// count.  Every comparison here is on serialized CSV text, the strongest
// equality the bundle format can express.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>

namespace cal {
namespace {

/// Multi-factor randomized plan: 3 x 2 cells, 5 replicates, order shuffled.
Plan multi_factor_plan(std::uint64_t seed) {
  return DesignBuilder(seed)
      .add(Factor::levels("size", {Value(1024), Value(4096), Value(16384)}))
      .add(Factor::levels("stride", {Value(1), Value(8)}))
      .replications(5)
      .randomize(true)
      .build();
}

/// Stationary noisy measurement: metrics depend only on the planned run
/// and the per-run random stream (never on ctx.now_s), which is exactly
/// the engine's parallel determinism contract.
MeasureResult noisy_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double base = run.values[0].as_real() / (1.0 + run.values[1].as_real());
  const double noise = ctx.rng->lognormal_factor(0.3);
  const double spike = ctx.rng->bernoulli(0.05) ? ctx.rng->uniform(2.0, 5.0)
                                                : 1.0;
  const double value = base * noise * spike;
  return MeasureResult{{value, noise}, value * 1e-7};
}

std::string run_to_csv(std::size_t threads, std::uint64_t plan_seed) {
  Engine::Options options;
  options.seed = 97;
  options.threads = threads;
  Engine engine({"time_us", "noise"}, options);
  const RawTable table = engine.run(multi_factor_plan(plan_seed), noisy_measure);
  std::ostringstream out;
  table.write_csv(out);
  return out.str();
}

std::string opaque_to_text(std::size_t threads, std::uint64_t plan_seed) {
  Engine::Options options;
  options.seed = 97;
  options.threads = threads;
  Engine engine({"time_us", "noise"}, options);
  const OpaqueSummary summary =
      engine.run_opaque(multi_factor_plan(plan_seed), noisy_measure);
  std::ostringstream out;
  for (const auto& cell : summary.cells) {
    for (const auto& f : cell.factors) out << f.to_string() << ',';
    out << cell.n;
    for (std::size_t m = 0; m < cell.mean.size(); ++m) {
      out << ',' << Value(cell.mean[m]).to_string() << ','
          << Value(cell.sd[m]).to_string();
    }
    out << '\n';
  }
  return out.str();
}

TEST(ParallelEngine, RunCsvIsBitIdenticalAcrossThreadCounts) {
  const std::string sequential = run_to_csv(1, 11);
  EXPECT_EQ(run_to_csv(2, 11), sequential);
  EXPECT_EQ(run_to_csv(8, 11), sequential);
}

TEST(ParallelEngine, OpaqueSummaryIsBitIdenticalAcrossThreadCounts) {
  const std::string sequential = opaque_to_text(1, 12);
  EXPECT_EQ(opaque_to_text(2, 12), sequential);
  EXPECT_EQ(opaque_to_text(8, 12), sequential);
}

/// Measurement whose cost is skewed by plan index: every seventh run does
/// ~100x the work of the others, so guided self-scheduling hands out
/// uneven chunks and workers finish them in timing-dependent order.  Its
/// metrics still depend only on the run and its random stream.
MeasureResult skewed_measure(const PlannedRun& run, MeasureContext& ctx) {
  const std::size_t spins = run.run_index % 7 == 0 ? 20000 : 200;
  double acc = 0.0;
  for (std::size_t i = 1; i <= spins; ++i) {
    acc += std::sqrt(static_cast<double>(i) + run.values[0].as_real());
  }
  const double value = acc * ctx.rng->lognormal_factor(0.2);
  return MeasureResult{{value, static_cast<double>(spins)}, value * 1e-9};
}

TEST(ParallelEngine, SkewedCostIsBitIdenticalAcrossThreadCounts) {
  const Plan plan =
      DesignBuilder(21)
          .add(Factor::levels("size", {Value(1024), Value(4096), Value(16384)}))
          .add(Factor::levels("stride", {Value(1), Value(8)}))
          .replications(40)  // 240 runs
          .randomize(true)
          .build();
  const auto csv_at = [&](std::size_t threads) {
    Engine::Options options;
    options.seed = 31;
    options.threads = threads;
    options.sink_batch = 37;  // several pipelined windows, ragged tail
    std::ostringstream out;
    Engine({"work", "spins"}, options).run(plan, skewed_measure).write_csv(out);
    return out.str();
  };
  const std::string sequential = csv_at(1);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(csv_at(2), sequential) << "repeat " << repeat;
    EXPECT_EQ(csv_at(8), sequential) << "repeat " << repeat;
  }
}

/// A one-shot flag that threads can wait on: set() releases every
/// current and future wait().  wait() gives up after a minute so a lost
/// overlap fails the test instead of hanging it.
class Flag {
 public:
  void set() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      set_ = true;
    }
    cv_.notify_all();
  }
  bool wait() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::minutes(1), [&] { return set_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool set_ = false;
};

/// Collects every batch; consume() of the first batch runs `on_first`.
class HookSink final : public RecordSink {
 public:
  explicit HookSink(std::function<void()> on_first)
      : on_first_(std::move(on_first)) {}
  void begin(const std::vector<std::string>& factors,
             const std::vector<std::string>& metrics,
             std::size_t expected) override {
    inner_.begin(factors, metrics, expected);
  }
  void consume(std::vector<RawRecord> batch) override {
    if (batches_++ == 0) on_first_();
    inner_.consume(std::move(batch));
  }
  void close() override { inner_.close(); }
  RawTable take() { return inner_.take(); }

 private:
  std::function<void()> on_first_;
  TableSink inner_;
  std::size_t batches_ = 0;
};

TEST(ParallelEngine, PooledWindowsMeasureTheNextWindowDuringTheSink) {
  // Window 1's measurements block until the sink has begun consuming
  // window 0, and that consume() blocks until a window 1 measurement has
  // started: the campaign only completes if the two overlap.
  const Plan plan = multi_factor_plan(17);  // 30 runs
  Engine::Options options;
  options.seed = 5;
  options.threads = 2;
  options.sink_batch = 8;
  Flag window1_started, sink_saw_window1;
  bool overlapped = false;
  HookSink sink([&] {
    overlapped = window1_started.wait();
    sink_saw_window1.set();
  });
  const MeasureFn measure = [&](const PlannedRun& run, MeasureContext& ctx) {
    if (run.run_index / 8 == 1) {
      window1_started.set();
      EXPECT_TRUE(sink_saw_window1.wait());
    }
    return noisy_measure(run, ctx);
  };
  Engine(std::vector<std::string>{"time_us", "noise"}, options)
      .run(plan, measure, sink);
  EXPECT_TRUE(overlapped);

  // The overlap changed when the work ran, not what was recorded.
  Engine::Options sequential = options;
  sequential.threads = 1;
  std::ostringstream ref, out;
  Engine({"time_us", "noise"}, sequential).run(plan, noisy_measure)
      .write_csv(ref);
  sink.take().write_csv(out);
  EXPECT_EQ(out.str(), ref.str());
}

TEST(ParallelEngine, ThreadsZeroResolvesToHardware) {
  EXPECT_GE(Engine::resolve_threads(0), 1u);
  EXPECT_EQ(Engine::resolve_threads(3), 3u);
}

TEST(ParallelEngine, MoreThreadsThanRunsIsSafe) {
  Plan plan = DesignBuilder(5)
                  .add(Factor::levels("x", {Value(1), Value(2)}))
                  .build();  // 2 runs, 16 requested workers
  Engine::Options options;
  options.threads = 16;
  Engine engine({"m"}, options);
  const RawTable table =
      engine.run(plan, [](const PlannedRun& run, MeasureContext& ctx) {
        return MeasureResult{{run.values[0].as_real() * ctx.rng->uniform()},
                             1e-6};
      });
  EXPECT_EQ(table.size(), 2u);
}

TEST(ParallelEngine, FactoryBuildsOneMeasurePerWorker) {
  // Each worker gets its own callable; worker-private state must not
  // break determinism for stationary measurements.
  const Plan plan = multi_factor_plan(13);
  Engine::Options options;
  options.threads = 4;
  Engine engine({"m"}, options);

  std::vector<std::size_t> workers_built;
  const MeasureFactory factory = [&workers_built](std::size_t worker) {
    workers_built.push_back(worker);
    auto calls = std::make_shared<std::size_t>(0);  // worker-private state
    return [calls](const PlannedRun& run, MeasureContext& ctx) {
      ++*calls;
      return MeasureResult{{run.values[0].as_real() * ctx.rng->uniform()},
                           1e-6};
    };
  };
  const RawTable parallel = engine.run(plan, factory);

  Engine::Options seq_options;
  seq_options.threads = 1;
  Engine sequential({"m"}, seq_options);
  const RawTable reference = sequential.run(plan, factory);

  ASSERT_EQ(workers_built.size(), 5u);  // 4 parallel workers + 1 sequential
  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel.records()[i].metrics[0],
                     reference.records()[i].metrics[0]);
    EXPECT_DOUBLE_EQ(parallel.records()[i].timestamp_s,
                     reference.records()[i].timestamp_s);
  }
}

TEST(ParallelEngine, WorkerExceptionPropagates) {
  const Plan plan = multi_factor_plan(14);
  Engine::Options options;
  options.threads = 4;
  Engine engine({"m"}, options);
  EXPECT_THROW(
      engine.run(plan,
                 [](const PlannedRun& run, MeasureContext&) -> MeasureResult {
                   if (run.run_index == 7) {
                     throw std::runtime_error("instrument failure");
                   }
                   return MeasureResult{{1.0}, 1e-6};
                 }),
      std::runtime_error);
}

TEST(ParallelEngine, WidthMismatchThrowsInParallelMode) {
  const Plan plan = multi_factor_plan(15);
  Engine::Options options;
  options.threads = 2;
  Engine engine({"m1", "m2"}, options);
  EXPECT_THROW(engine.run(plan,
                          [](const PlannedRun&, MeasureContext&) {
                            return MeasureResult{{1.0}, 0.0};
                          }),
               std::runtime_error);
}

TEST(ParallelEngine, OpaqueCellIndexingMatchesLegacyGrouping) {
  // For level-factor plans every cell has a distinct value combination,
  // so indexing by cell must reproduce the legacy values-keyed grouping:
  // one summary per cell, replicate count intact, cells in sweep order.
  const Plan plan = multi_factor_plan(16);
  Engine engine({"m"});
  const OpaqueSummary summary =
      engine.run_opaque(plan, [](const PlannedRun& run, MeasureContext&) {
        return MeasureResult{{static_cast<double>(run.cell_index)}, 1e-6};
      });
  ASSERT_EQ(summary.cells.size(), 6u);
  for (std::size_t c = 0; c < summary.cells.size(); ++c) {
    EXPECT_EQ(summary.cells[c].n, 5u);
    EXPECT_DOUBLE_EQ(summary.cells[c].mean[0], static_cast<double>(c));
    EXPECT_DOUBLE_EQ(summary.cells[c].sd[0], 0.0);
  }
}

}  // namespace
}  // namespace cal
