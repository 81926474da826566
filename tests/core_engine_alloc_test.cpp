// Allocation budget of the engine -> sink path.
//
// The methodology keeps every raw record, so the cost of one record on
// its way from a measurement to the archive is the price of that rule.
// A level-only plan interns one factor row per cell and a record carries
// its metrics inline, so building, handing off and archiving a record
// must not touch the heap: what remains is per window (the batch vector)
// and per block (encoder and manifest bookkeeping).  A counting global
// operator new pins that at <= 0.05 allocations per record over a
// calbench-shaped campaign (int, int and string level factors, three
// metrics) at one and two workers, into a 4-shard bbx bundle and into a
// sink that drops every batch.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <new>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/engine.hpp"
#include "io/archive/bbx_writer.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cal {
namespace {

constexpr double kBudgetPerRecord = 0.05;

/// 16 sizes x 8 thread counts x 4 variants x 128 replicates = 65,536 runs.
Plan calbench_shaped_plan() {
  std::vector<Value> sizes, threads;
  for (int k = 10; k <= 25; ++k) sizes.emplace_back(std::int64_t{1} << k);
  for (int t = 1; t <= 8; ++t) threads.emplace_back(t);
  return DesignBuilder(2026)
      .add(Factor::levels("size_bytes", sizes))
      .add(Factor::levels("threads", threads))
      .add(Factor::levels("variant", {Value("scalar"), Value("unrolled"),
                                      Value("vector"), Value("prefetch")}))
      .replications(128)
      .build();
}

MeasureResult latency_model(const PlannedRun& run, MeasureContext& ctx) {
  const double size = static_cast<double>(run.values[0].as_int());
  const double threads = static_cast<double>(run.values[1].as_int());
  const double per_byte = run.values[2].as_string() == "vector" ? 0.4 : 1.0;
  const double latency_us = 2.0 + size * per_byte * 1e-3 /
                                      std::pow(threads, 0.85) *
                                      ctx.rng->lognormal_factor(0.05);
  return {{latency_us, size / latency_us, latency_us * 1e-6 * 10.0},
          latency_us * 1e-6};
}

class DropSink final : public RecordSink {
 public:
  void begin(const std::vector<std::string>&, const std::vector<std::string>&,
             std::size_t) override {}
  void consume(std::vector<RawRecord> batch) override { records_ += batch.size(); }
  void close() override {}
  std::size_t records() const noexcept { return records_; }

 private:
  std::size_t records_ = 0;
};

/// Heap allocations per record of one Engine::run into `sink`.
double allocations_per_record(const Plan& plan, std::size_t threads,
                              RecordSink& sink) {
  Engine::Options options;
  options.seed = 11;
  options.threads = threads;
  const Engine engine({"latency_us", "throughput_mbps", "energy_j"}, options);
  const MeasureFn measure(latency_model);
  g_allocations.store(0);
  g_counting.store(true);
  engine.run(plan, measure, sink);
  g_counting.store(false);
  const double per_record = static_cast<double>(g_allocations.load()) /
                            static_cast<double>(plan.size());
  std::cout << "threads=" << threads << ": " << g_allocations.load()
            << " allocations, " << per_record << " per record\n";
  return per_record;
}

TEST(EngineAllocations, BbxIngestAllocatesNothingPerRecord) {
  const Plan plan = calbench_shaped_plan();
  ASSERT_GE(plan.size(), 65536u);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("calipers_alloc_" + std::to_string(::getpid()));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    std::filesystem::remove_all(dir);
    io::archive::BbxWriter::Options options;
    options.shards = 4;
    io::archive::BbxWriter writer(dir.string(), options);
    EXPECT_LE(allocations_per_record(plan, threads, writer), kBudgetPerRecord)
        << "threads=" << threads;
    EXPECT_EQ(writer.records_written(), plan.size());
  }
  std::filesystem::remove_all(dir);
}

TEST(EngineAllocations, DroppingSinkIngestAllocatesNothingPerRecord) {
  const Plan plan = calbench_shaped_plan();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    DropSink sink;
    EXPECT_LE(allocations_per_record(plan, threads, sink), kBudgetPerRecord)
        << "threads=" << threads;
    EXPECT_EQ(sink.records(), plan.size());
  }
}

}  // namespace
}  // namespace cal
