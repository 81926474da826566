// Tests for core::WorkerPool and the engine's failure semantics on top
// of it: deterministic round-robin affinity, first-submission /
// first-plan-order exception propagation, pool reusability after a
// failed window, and sink finalization when a campaign dies mid-flight.

#include "core/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"

namespace cal {
namespace {

TEST(WorkerPool, SizeClampedToAtLeastOneWorker) {
  core::WorkerPool zero(0);
  EXPECT_EQ(zero.size(), 1u);
  core::WorkerPool four(4);
  EXPECT_EQ(four.size(), 4u);
  EXPECT_EQ(four.name(), "calipers");
}

TEST(WorkerPool, RunsEverySubmittedTaskOnItsAssignedWorker) {
  core::WorkerPool pool(3, "t");
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ran;  // (submission, worker)
  for (std::size_t i = 0; i < 12; ++i) {
    pool.submit([&, i](std::size_t worker) {
      std::lock_guard<std::mutex> lock(mu);
      ran.emplace_back(i, worker);
    });
  }
  pool.barrier();
  ASSERT_EQ(ran.size(), 12u);
  for (const auto& [submission, worker] : ran) {
    // Round-robin affinity: submission i runs on worker i % size().
    EXPECT_EQ(worker, submission % 3);
  }
}

TEST(WorkerPool, RoundRobinCursorResetsAtBarrier) {
  core::WorkerPool pool(4, "t");
  std::mutex mu;
  std::map<std::size_t, std::thread::id> first, second;
  for (std::size_t i = 0; i < 4; ++i) {
    pool.submit([&, i](std::size_t) {
      std::lock_guard<std::mutex> lock(mu);
      first[i] = std::this_thread::get_id();
    });
  }
  pool.barrier();
  for (std::size_t i = 0; i < 4; ++i) {
    pool.submit([&, i](std::size_t) {
      std::lock_guard<std::mutex> lock(mu);
      second[i] = std::this_thread::get_id();
    });
  }
  pool.barrier();
  // Both batches map submission i to the same long-lived worker thread.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(first[i], second[i]);
}

TEST(WorkerPool, BarrierRethrowsEarliestSubmittedFailure) {
  core::WorkerPool pool(2, "t");
  for (std::size_t i = 0; i < 6; ++i) {
    pool.submit([i](std::size_t) {
      if (i == 4 || i == 2) {
        throw std::runtime_error("submission " + std::to_string(i));
      }
    });
  }
  try {
    pool.barrier();
    FAIL() << "barrier() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "submission 2");
  }
}

TEST(WorkerPool, RunIndexedCoversEveryIndexExactlyOnce) {
  core::WorkerPool pool(3, "t");
  std::mutex mu;
  std::multiset<std::size_t> seen;
  pool.run_indexed(17, [&](std::size_t worker, std::size_t index) {
    EXPECT_EQ(worker, index % 3);  // round-robin sharding
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(index);
  });
  ASSERT_EQ(seen.size(), 17u);
  for (std::size_t i = 0; i < 17; ++i) EXPECT_EQ(seen.count(i), 1u);
}

TEST(WorkerPool, RunIndexedPropagatesLowestIndexFailure) {
  core::WorkerPool pool(4, "t");
  // Failures land on different workers (9 -> worker 1, 3 -> worker 3);
  // the lowest *index* must win regardless of which worker finished
  // first or was submitted first.
  auto body = [](std::size_t, std::size_t index) {
    if (index == 9 || index == 3) {
      throw std::runtime_error("task " + std::to_string(index));
    }
  };
  try {
    pool.run_indexed(16, body);
    FAIL() << "run_indexed() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  // The failed window must not poison the pool: the next window runs to
  // completion on the same workers.
  std::atomic<std::size_t> count{0};
  pool.run_indexed(16, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 16u);
}

// --- Engine-level failure semantics on the pool ---------------------------

/// Records the sink lifecycle so tests can assert the engine finalized
/// it even when the campaign died mid-window.
class LifecycleSink final : public RecordSink {
 public:
  void begin(const std::vector<std::string>&, const std::vector<std::string>&,
             std::size_t) override {
    begun = true;
  }
  void consume(std::vector<RawRecord> batch) override {
    records += batch.size();
  }
  void close() override { closed = true; }

  bool begun = false;
  bool closed = false;
  std::size_t records = 0;
};

Plan fail_plan() {
  return DesignBuilder(8)
      .add(Factor::levels("x", {Value(1), Value(2), Value(3)}))
      .replications(6)  // 18 runs
      .build();
}

/// Throws on the given plan-order indices, with a message naming the run.
MeasureFn failing_measure(std::vector<std::size_t> fail_at) {
  return [fail_at](const PlannedRun& run, MeasureContext&) -> MeasureResult {
    for (const std::size_t index : fail_at) {
      if (run.run_index == index) {
        throw std::runtime_error("fail@" + std::to_string(index));
      }
    }
    return MeasureResult{{static_cast<double>(run.run_index)}, 1e-6};
  };
}

TEST(WorkerPoolEngine, FirstPlanOrderExceptionPropagates) {
  Engine::Options options;
  options.threads = 4;
  Engine engine({"m"}, options);
  // Runs 10 and 3 both throw; 3 shards onto worker 3 and 10 onto worker
  // 2, so worker order would report 10 -- plan order must report 3.
  try {
    engine.run(fail_plan(), failing_measure({10, 3}));
    FAIL() << "run() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail@3");
  }
}

TEST(WorkerPoolEngine, WindowedFailureStillReportsEarliestPlanOrder) {
  Engine::Options options;
  options.threads = 4;
  options.sink_batch = 4;  // failures 3 and 10 land in different windows
  Engine engine({"m"}, options);
  LifecycleSink sink;
  try {
    engine.run(fail_plan(), failing_measure({10, 3}), sink);
    FAIL() << "run() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail@3");
  }
  // The sink was begun, saw no batch from the failed first window, and
  // was still finalized during unwinding.
  EXPECT_TRUE(sink.begun);
  EXPECT_TRUE(sink.closed);
  EXPECT_EQ(sink.records, 0u);
}

TEST(WorkerPoolEngine, SinkIsFinalizedWithCompletedWindowsOnFailure) {
  Engine::Options options;
  options.threads = 4;
  options.sink_batch = 4;
  Engine engine({"m"}, options);
  LifecycleSink sink;
  EXPECT_THROW(engine.run(fail_plan(), failing_measure({10}), sink),
               std::runtime_error);
  EXPECT_TRUE(sink.closed);
  // Windows before the failing one (runs 0..7) were already delivered.
  EXPECT_EQ(sink.records, 8u);
}

TEST(WorkerPoolEngine, SharedPoolSurvivesFailuresAndStaysDeterministic) {
  auto pool = std::make_shared<core::WorkerPool>(4, "shared");
  Engine::Options options;
  options.pool = pool;
  Engine engine({"m"}, options);

  const MeasureFn ok = [](const PlannedRun& run, MeasureContext& ctx) {
    return MeasureResult{{run.values[0].as_real() * ctx.rng->uniform()},
                         1e-6};
  };

  // Reference bytes from a plain sequential engine.
  std::ostringstream ref;
  Engine({"m"}).run(fail_plan(), ok).write_csv(ref);

  // A failing campaign on the shared pool...
  EXPECT_THROW(engine.run(fail_plan(), failing_measure({5})),
               std::runtime_error);
  EXPECT_THROW(engine.run_opaque(fail_plan(), failing_measure({5})),
               std::runtime_error);

  // ...leaves it fully reusable, and byte-identical to sequential.
  std::ostringstream out;
  engine.run(fail_plan(), ok).write_csv(out);
  EXPECT_EQ(out.str(), ref.str());

  std::ostringstream opaque_ref, opaque_out;
  Engine({"m"}).run_opaque(fail_plan(), ok).write_csv(opaque_ref);
  engine.run_opaque(fail_plan(), ok).write_csv(opaque_out);
  EXPECT_EQ(opaque_out.str(), opaque_ref.str());
}

TEST(WorkerPoolEngine, SharedPoolWiderThanPlanClampsFactoryBuilds) {
  auto pool = std::make_shared<core::WorkerPool>(8, "wide");
  Engine::Options options;
  options.pool = pool;
  Engine engine({"m"}, options);
  const Plan plan =
      DesignBuilder(5)
          .add(Factor::levels("x", {Value(1), Value(2), Value(3)}))
          .build();  // 3 runs on an 8-worker pool

  std::size_t builds = 0;
  const MeasureFactory factory = [&builds](std::size_t) {
    ++builds;
    return [](const PlannedRun& run, MeasureContext& ctx) {
      return MeasureResult{{run.values[0].as_real() * ctx.rng->uniform()},
                           1e-6};
    };
  };
  std::ostringstream out;
  engine.run(plan, factory).write_csv(out);
  // Worker resources are clamped to the plan size, not the pool width.
  EXPECT_EQ(builds, 3u);

  std::ostringstream ref;
  Engine({"m"}).run(plan, factory).write_csv(ref);
  EXPECT_EQ(out.str(), ref.str());
}

TEST(WorkerPool, RunIndexedHonoursNarrowWidth) {
  core::WorkerPool pool(6, "t");
  std::mutex mu;
  std::vector<std::size_t> worker_of(10, 99);
  pool.run_indexed(
      10,
      [&](std::size_t worker, std::size_t index) {
        std::lock_guard<std::mutex> lock(mu);
        worker_of[index] = worker;
      },
      /*width=*/2);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(worker_of[i], i % 2);  // stride 2, workers 2..5 stay idle
  }
}

TEST(WorkerPoolEngine, OpaqueFailurePropagatesSweepOrderException) {
  Engine::Options options;
  options.threads = 4;
  options.sink_batch = 5;
  Engine engine({"m"}, options);
  // In opaque mode the sweep re-sorts runs by cell, so the exception that
  // propagates is the earliest in *sweep* order; with every run failing,
  // that is sweep position 0 regardless of windowing.
  try {
    engine.run_opaque(fail_plan(),
                      [](const PlannedRun&, MeasureContext& ctx)
                          -> MeasureResult {
                        throw std::runtime_error(
                            "sweep@" + std::to_string(ctx.sequence));
                      });
    FAIL() << "run_opaque() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sweep@0");
  }
}

}  // namespace
}  // namespace cal
