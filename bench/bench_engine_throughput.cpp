// Engine throughput: runs/sec of the campaign engine at 1..N worker
// threads, plus a determinism cross-check (parallel CSV must equal the
// sequential CSV byte for byte).  Emits BENCH_engine.json so successive
// PRs can track the perf trajectory.
//
// Two measurement profiles are timed:
//
//   * "waiting": the measurement callable blocks for the (simulated)
//     duration of the run, like a real harness waiting on hardware
//     counters, a timer quantum, or a remote node.  This is the profile
//     sharding exists for -- workers overlap their waits, so runs/sec
//     scales with the worker count even on a single hardware thread.
//   * "cpu_bound": pure arithmetic; scales only with physical cores and
//     bounds the engine's sharding overhead from above.
//
// A third arm, "record_ingest", prices the engine -> sink path itself:
// calbench's 262,144-run archive plan with a measurement that returns
// constants, at one worker, into a sink that drops every batch and into
// a 4-shard bbx bundle.  The two run 11 replicates each in one shuffled
// interleaved order; the JSON keeps the median and quartiles of
// ns/record and the heap allocations per record (counted by the global
// operator new below).  Only the allocation count is gated -- a timing
// gate would flake on a host with vCPU steal.
//
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.hpp"
#include "core/build_info.hpp"
#include "core/engine.hpp"
#include "io/archive/bbx_writer.hpp"
#include "io/table_fmt.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace cal;

namespace {

Plan throughput_plan() {
  return DesignBuilder(77)
      .add(Factor::levels("size", {Value(1024), Value(8192), Value(65536),
                                   Value(262144)}))
      .add(Factor::levels("stride", {Value(1), Value(4), Value(16),
                                     Value(64)}))
      .replications(125)  // 16 cells x 125 = 2000 runs
      .build();
}

/// Simulated duration of one run, microseconds: deterministic in the run
/// and its private stream, never in wall-clock state.
double run_duration_us(const PlannedRun& run, MeasureContext& ctx) {
  const double base = 120.0 + run.values[1].as_real();
  return base * ctx.rng->lognormal_factor(0.2);
}

MeasureResult waiting_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double us = run_duration_us(run, ctx);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long long>(us)));
  return MeasureResult{{us}, us * 1e-6};
}

MeasureResult cpu_bound_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double us = run_duration_us(run, ctx);
  // ~10 us of arithmetic on this class of core.
  double acc = us;
  for (int i = 0; i < 20000; ++i) acc = acc * 1.0000001 + 1e-9;
  return MeasureResult{{acc}, us * 1e-6};
}

struct Timing {
  std::size_t threads = 0;
  double runs_per_sec = 0.0;
};

Timing time_engine(const Plan& plan, const MeasureFn& measure,
                   std::size_t threads) {
  Engine::Options options;
  options.seed = 7;
  options.threads = threads;
  Engine engine({"m"}, options);
  const auto t0 = std::chrono::steady_clock::now();
  const RawTable table = engine.run(plan, measure);
  const auto t1 = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(t1 - t0).count();
  return Timing{threads,
                static_cast<double>(table.size()) / std::max(elapsed, 1e-9)};
}

/// calbench's archive plan: 16 sizes x 8 thread counts x 4 string
/// variants x 512 replicates = 262,144 runs.
Plan ingest_plan() {
  std::vector<Value> sizes, threads;
  for (int k = 10; k <= 25; ++k) sizes.emplace_back(std::int64_t{1} << k);
  for (int t = 1; t <= 8; ++t) threads.emplace_back(t);
  return DesignBuilder(2017)
      .add(Factor::levels("size_bytes", sizes))
      .add(Factor::levels("threads", threads))
      .add(Factor::levels("variant", {Value("scalar"), Value("unrolled"),
                                      Value("vector"), Value("prefetch")}))
      .replications(512)
      .build();
}

MeasureResult constant_measure(const PlannedRun&, MeasureContext&) {
  return MeasureResult{{1.0, 2.0, 3.0}, 1e-6};
}

class DropSink final : public RecordSink {
 public:
  void begin(const std::vector<std::string>&, const std::vector<std::string>&,
             std::size_t) override {}
  void consume(std::vector<RawRecord> batch) override { records += batch.size(); }
  void close() override {}
  std::size_t records = 0;
};

struct IngestSample {
  double ns_per_record = 0.0;
  double allocations_per_record = 0.0;
};

/// One Engine::run of `plan` into `sink` at one worker.
IngestSample time_ingest(const Plan& plan, RecordSink& sink) {
  Engine::Options options;
  options.seed = 5;
  const Engine engine({"a", "b", "c"}, options);
  const MeasureFn measure(constant_measure);
  const std::size_t allocations0 = g_allocations.load();
  const auto t0 = std::chrono::steady_clock::now();
  engine.run(plan, measure, sink);
  const auto t1 = std::chrono::steady_clock::now();
  const auto n = static_cast<double>(plan.size());
  return IngestSample{
      std::chrono::duration<double, std::nano>(t1 - t0).count() / n,
      static_cast<double>(g_allocations.load() - allocations0) / n};
}

std::string csv_at(const Plan& plan, const MeasureFn& measure,
                   std::size_t threads) {
  Engine::Options options;
  options.seed = 7;
  options.threads = threads;
  Engine engine({"m"}, options);
  std::ostringstream out;
  engine.run(plan, measure).write_csv(out);
  return out.str();
}

void emit_json(std::ostream& out, const std::string& name,
               const std::vector<Timing>& timings) {
  out << "  \"" << name << "\": {\"threads\": [";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    out << (i ? ", " : "") << timings[i].threads;
  }
  out << "], \"runs_per_sec\": [";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", timings[i].runs_per_sec);
    out << (i ? ", " : "") << buf;
  }
  char speedup[32];
  std::snprintf(speedup, sizeof speedup, "%.2f",
                timings.back().runs_per_sec / timings.front().runs_per_sec);
  out << "], \"speedup\": " << speedup << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  const Plan plan = throughput_plan();
  const std::vector<std::size_t> thread_counts = {1, 2, 8};

  io::print_banner(std::cout,
                   "Engine throughput: sharded campaign execution");
  std::cout << "Plan: " << plan.size() << " runs (16 cells x 125 reps), "
            << std::thread::hardware_concurrency()
            << " hardware thread(s).\n\n";

  bench::Checker check;

  // Determinism first: the parallel table must be byte-identical.
  const std::string seq_csv = csv_at(plan, waiting_measure, 1);
  check.expect(csv_at(plan, waiting_measure, 2) == seq_csv,
               "2-thread CSV bit-identical to sequential");
  check.expect(csv_at(plan, waiting_measure, 8) == seq_csv,
               "8-thread CSV bit-identical to sequential");
  {
    // ...including in the small-window regime (~63 pooled windows).
    Engine::Options options;
    options.seed = 7;
    options.threads = 8;
    options.sink_batch = 32;
    std::ostringstream pooled;
    Engine({"m"}, options).run(plan, waiting_measure).write_csv(pooled);
    check.expect(pooled.str() == seq_csv,
                 "sink_batch=32 windows bit-identical to sequential");
  }

  std::vector<Timing> waiting, cpu_bound;
  for (const std::size_t t : thread_counts) {
    waiting.push_back(time_engine(plan, waiting_measure, t));
    cpu_bound.push_back(time_engine(plan, cpu_bound_measure, t));
  }

  io::TextTable table({"threads", "waiting runs/s", "cpu-bound runs/s"});
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    table.add_row({std::to_string(thread_counts[i]),
                   io::TextTable::num(waiting[i].runs_per_sec, 0),
                   io::TextTable::num(cpu_bound[i].runs_per_sec, 0)});
  }
  table.print(std::cout);

  const double waiting_speedup =
      waiting.back().runs_per_sec / waiting.front().runs_per_sec;
  std::cout << "\nWaiting-profile speedup at 8 threads: "
            << io::TextTable::num(waiting_speedup, 2) << "x\n";
  check.expect(waiting_speedup >= 3.0,
               "8-thread waiting-profile throughput >= 3x sequential");

  // Record ingest: both sinks, 11 replicates each, one shuffled order.
  constexpr std::size_t kReplicates = 11;
  const Plan ingest = ingest_plan();
  enum Arm : std::size_t { kDrop, kBbx, kArms };
  const char* const arm_names[kArms] = {"drop_sink", "bbx_4_shards"};
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < kReplicates; ++r) {
    order.push_back(kDrop);
    order.push_back(kBbx);
  }
  std::mt19937_64 shuffle_rng(20261020);
  std::shuffle(order.begin(), order.end(), shuffle_rng);
  const auto bundle_dir = std::filesystem::temp_directory_path() /
                          ("calipers_bench_ingest_" +
                           std::to_string(::getpid()));
  {
    DropSink warm;  // untimed: first-touch page faults, lazy statics
    time_ingest(ingest, warm);
  }
  std::vector<double> ns[kArms], allocations[kArms];
  bool every_record = true;
  for (const std::size_t arm : order) {
    IngestSample sample;
    if (arm == kDrop) {
      DropSink sink;
      sample = time_ingest(ingest, sink);
      every_record = every_record && sink.records == ingest.size();
    } else {
      std::filesystem::remove_all(bundle_dir);
      io::archive::BbxWriter::Options options;
      options.shards = 4;
      io::archive::BbxWriter sink(bundle_dir.string(), options);
      sample = time_ingest(ingest, sink);
    }
    ns[arm].push_back(sample.ns_per_record);
    allocations[arm].push_back(sample.allocations_per_record);
  }
  std::filesystem::remove_all(bundle_dir);
  check.expect(every_record, "drop sink received every record");

  std::cout << "\nRecord ingest (" << ingest.size()
            << " runs, constant measure, 1 worker, " << kReplicates
            << " shuffled replicates):\n";
  io::TextTable ingest_table(
      {"sink", "ns/record q1", "median", "q3", "allocations/record"});
  bench::Quartiles q[kArms];
  double worst_allocations[kArms];
  for (std::size_t arm = 0; arm < kArms; ++arm) {
    q[arm] = bench::quartiles(ns[arm]);
    worst_allocations[arm] =
        *std::max_element(allocations[arm].begin(), allocations[arm].end());
    ingest_table.add_row({arm_names[arm], io::TextTable::num(q[arm].q1, 1),
                          io::TextTable::num(q[arm].median, 1),
                          io::TextTable::num(q[arm].q3, 1),
                          io::TextTable::num(worst_allocations[arm], 4)});
    check.expect(worst_allocations[arm] <= 0.05,
                 std::string(arm_names[arm]) +
                     " ingest <= 0.05 heap allocations per record");
  }
  ingest_table.print(std::cout);
  std::cout << "Drop-sink median " << io::TextTable::num(q[kDrop].median, 1)
            << " ns/record (target <= 100; reported, not gated).\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n  \"bench\": \"engine_throughput\",\n  \"runs\": "
       << plan.size() << ",\n  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n  \"host\": "
       << bench::host_json("bench_engine_throughput") << ",\n";
  emit_json(json, "waiting", waiting);
  json << ",\n";
  emit_json(json, "cpu_bound", cpu_bound);
  json << ",\n  \"record_ingest\": {\"runs\": " << ingest.size()
       << ", \"threads\": 1, \"replicates\": " << kReplicates
       << ", \"target_ns_per_record\": 100";
  for (std::size_t arm = 0; arm < kArms; ++arm) {
    char allocations_text[32];
    std::snprintf(allocations_text, sizeof allocations_text, "%.4f",
                  worst_allocations[arm]);
    json << ", \"" << arm_names[arm] << "\": {\"ns_per_record\": "
         << bench::quartile_json(q[arm])
         << ", \"allocations_per_record\": " << allocations_text << "}";
  }
  json << "}\n}\n";
  std::cout << "Wrote " << json_path << "\n";

  return check.exit_code();
}
