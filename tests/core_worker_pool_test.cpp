// Tests for core::WorkerPool and the engine's failure semantics on top
// of it: round-robin submit() affinity, guided self-scheduling of
// indexed windows (every index exactly once, lowest failure wins), the
// "meanwhile" callable that overlaps a window, first-submission /
// first-plan-order exception propagation, pool reusability after a
// failed window, and sink finalization when a campaign dies mid-flight.

#include "core/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
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

/// A one-shot flag that threads can wait on: set() releases every
/// current and future wait().  wait() gives up after a minute so a
/// broken overlap fails the test instead of hanging it.
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
  // Guided self-scheduling: which worker takes an index depends on
  // timing, so only coverage is asserted -- over windows of many sizes,
  // each handing out shrinking chunks.
  for (const std::size_t count : {1u, 2u, 5u, 17u, 64u, 1000u}) {
    std::multiset<std::size_t> seen;
    pool.run_indexed(count, [&](std::size_t worker, std::size_t index) {
      EXPECT_LT(worker, 3u);
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(index);
    });
    ASSERT_EQ(seen.size(), count);
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(seen.count(i), 1u);
  }
}

TEST(WorkerPool, RunIndexedPropagatesLowestIndexFailure) {
  core::WorkerPool pool(4, "t");
  // Whichever workers claim 3 and 9, and whichever finishes first, the
  // lowest *index* must win: every index below it still runs.  Repeat
  // so that many different claim interleavings are exercised.
  auto body = [](std::size_t, std::size_t index) {
    if (index == 9 || index == 3) {
      throw std::runtime_error("task " + std::to_string(index));
    }
  };
  for (int repeat = 0; repeat < 50; ++repeat) {
    try {
      pool.run_indexed(16, body);
      FAIL() << "run_indexed() should have rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3");
    }
  }
  // Every index fails: index 0 is the one reported.
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      pool.run_indexed(64, [](std::size_t, std::size_t index) {
        throw std::runtime_error("task " + std::to_string(index));
      });
      FAIL() << "run_indexed() should have rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 0");
    }
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
  // Runs 10 and 3 both throw; whichever workers claim them, plan order
  // must report 3.
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

TEST(WorkerPoolEngine, SinkFailureWinsOverTheWindowInFlight) {
  // consume() of window 1 waits until window 2 -- whose every run throws
  // -- is being measured, then throws itself.  The sink's exception is
  // the sequentially earlier one, so it must be the one that propagates,
  // after the in-flight window has drained.
  auto pool = std::make_shared<core::WorkerPool>(4, "shared");
  Engine::Options options;
  options.pool = pool;
  options.sink_batch = 4;
  Engine engine({"m"}, options);
  for (int repeat = 0; repeat < 10; ++repeat) {
    Flag window2_started;
    class ThrowingSink final : public RecordSink {
     public:
      explicit ThrowingSink(Flag& started) : started_(started) {}
      void begin(const std::vector<std::string>&,
                 const std::vector<std::string>&, std::size_t) override {}
      void consume(std::vector<RawRecord> batch) override {
        if (batches++ == 1) {
          EXPECT_TRUE(started_.wait());
          throw std::runtime_error("sink@1");
        }
        records += batch.size();
      }
      void close() override { closed = true; }
      std::size_t batches = 0;
      std::size_t records = 0;
      bool closed = false;

     private:
      Flag& started_;
    } sink(window2_started);
    const MeasureFn measure = [&](const PlannedRun& run,
                                  MeasureContext&) -> MeasureResult {
      if (run.run_index / 4 == 2) {
        window2_started.set();
        throw std::runtime_error("fail@" + std::to_string(run.run_index));
      }
      return MeasureResult{{static_cast<double>(run.run_index)}, 1e-6};
    };
    try {
      engine.run(fail_plan(), measure, sink);
      FAIL() << "run() should have rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "sink@1");
    }
    EXPECT_TRUE(sink.closed);
    EXPECT_EQ(sink.records, 4u);  // window 0 only
  }
  // The shared pool is reusable and still byte-identical to sequential.
  const MeasureFn ok = [](const PlannedRun& run, MeasureContext& ctx) {
    return MeasureResult{{run.values[0].as_real() * ctx.rng->uniform()},
                         1e-6};
  };
  std::ostringstream ref, out;
  Engine({"m"}).run(fail_plan(), ok).write_csv(ref);
  engine.run(fail_plan(), ok).write_csv(out);
  EXPECT_EQ(out.str(), ref.str());
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
  std::vector<std::size_t> runs_of(10, 0);
  pool.run_indexed(
      10,
      [&](std::size_t worker, std::size_t index) {
        EXPECT_LT(worker, 2u);  // width 2: workers 2..5 stay idle
        std::lock_guard<std::mutex> lock(mu);
        ++runs_of[index];
      },
      /*width=*/2);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(runs_of[i], 1u) << i;
}

TEST(WorkerPool, MeanwhileRunsWhileTheWindowIsInFlight) {
  core::WorkerPool pool(2, "t");
  // Index 0 blocks until the meanwhile callable has run, and the
  // meanwhile callable blocks until index 0 has started: both can only
  // finish if they overlap.
  Flag started, meanwhile_ran;
  std::atomic<std::size_t> count{0};
  bool overlapped = false;
  pool.run_indexed(
      8,
      [&](std::size_t, std::size_t index) {
        if (index == 0) {
          started.set();
          EXPECT_TRUE(meanwhile_ran.wait());
        }
        ++count;
      },
      0, [&] {
        overlapped = started.wait();
        meanwhile_ran.set();
      });
  EXPECT_TRUE(overlapped);
  EXPECT_EQ(count.load(), 8u);
}

TEST(WorkerPool, MeanwhileFailureWinsAndTheWindowIsWaitedFor) {
  core::WorkerPool pool(3, "t");
  for (int repeat = 0; repeat < 20; ++repeat) {
    std::atomic<std::size_t> finished{0};
    try {
      pool.run_indexed(
          32,
          [&](std::size_t, std::size_t index) {
            ++finished;
            if (index == 5) throw std::runtime_error("task 5");
          },
          0, [] { throw std::runtime_error("meanwhile"); });
      FAIL() << "run_indexed() should have rethrown";
    } catch (const std::runtime_error& e) {
      // The caller's own work comes first in program order.
      EXPECT_STREQ(e.what(), "meanwhile");
    }
    // The window was drained before the exception propagated: every
    // index up to the failure ran, and no task is still touching
    // `finished` (a late increment would be a use after scope).
    EXPECT_GE(finished.load(), 6u);
  }
  // An empty window still runs the meanwhile callable, and the pool is
  // reusable after all those failures.
  bool ran = false;
  pool.run_indexed(0, [](std::size_t, std::size_t) {}, 0, [&] { ran = true; });
  EXPECT_TRUE(ran);
  std::atomic<std::size_t> count{0};
  pool.run_indexed(16, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 16u);
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
