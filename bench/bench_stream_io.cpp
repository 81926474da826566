// Stream-I/O bench: records/sec and resident-memory proxy of archiving a
// campaign through the in-memory TableSink (RawTable + write_csv at the
// end) versus the double-buffered CsvStreamSink (archive written while
// the campaign runs).  Emits BENCH_stream_io.json so successive PRs can
// track the trajectory, and cross-checks that both archives are
// byte-identical -- the determinism half of the streaming contract.
//
//   bench_stream_io [json-path] [--smoke]
//
// --smoke shrinks the plan and writes the JSON into the working
// directory; it is registered with CTest as a smoke run.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "io/stream_sink.hpp"
#include "io/table_fmt.hpp"

using namespace cal;

namespace {

Plan archive_plan(std::size_t reps) {
  return DesignBuilder(73)
      .add(Factor::levels("size", {Value(1024), Value(8192), Value(65536),
                                   Value(262144)}))
      .add(Factor::levels("stride", {Value(1), Value(4), Value(16),
                                     Value(64)}))
      .replications(reps)
      .randomize(true)
      .build();
}

MeasureResult cheap_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double base = run.values[0].as_real() / (1.0 + run.values[1].as_real());
  const double value = base * ctx.rng->lognormal_factor(0.2);
  return MeasureResult{{value, value * 0.5}, value * 1e-9};
}

Engine make_engine(std::size_t threads, std::size_t sink_batch = 4096) {
  Engine::Options options;
  options.seed = 19;
  options.threads = threads;
  options.sink_batch = sink_batch;
  return Engine({"time_us", "aux"}, options);
}

/// Deterministic resident-bytes proxy of holding `table` (records plus
/// any metrics that spilled past the inline capacity), instead of rusage
/// high-water marks that never shrink within a process.  Factor rows are
/// shared with the plan, so they add nothing per record.
std::size_t table_resident_bytes(const RawTable& table) {
  std::size_t bytes = table.records().capacity() * sizeof(RawRecord);
  for (const auto& rec : table.records()) {
    if (rec.metrics.spilled()) {
      bytes += rec.metrics.capacity() * sizeof(double);
    }
  }
  return bytes;
}

struct ModeResult {
  double records_per_sec = 0.0;
  std::size_t resident_bytes = 0;
};

ModeResult run_in_memory(const Plan& plan, std::size_t threads,
                         const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  const RawTable table = make_engine(threads).run(plan, cheap_measure);
  {
    std::ofstream out(path, std::ios::binary);
    table.write_csv(out);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double elapsed = std::chrono::duration<double>(t1 - t0).count();
  return ModeResult{static_cast<double>(table.size()) /
                        std::max(elapsed, 1e-9),
                    table_resident_bytes(table)};
}

ModeResult run_streamed(const Plan& plan, std::size_t threads,
                        const std::string& path, std::size_t sink_batch,
                        std::size_t buffer_bytes) {
  const Engine engine = make_engine(threads, sink_batch);
  const auto t0 = std::chrono::steady_clock::now();
  io::CsvStreamSink::Options sink_options;
  sink_options.buffer_bytes = buffer_bytes;
  std::size_t records = 0;
  {
    io::CsvStreamSink sink(path, sink_options);
    engine.run(plan, cheap_measure, sink);
    records = sink.records_written();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double elapsed = std::chrono::duration<double>(t1 - t0).count();
  // Resident proxy: two swap buffers plus one batch of records in
  // flight -- independent of campaign size, which is the whole point.
  const std::size_t batch_bytes =
      engine.options().sink_batch * sizeof(RawRecord);
  return ModeResult{static_cast<double>(records) / std::max(elapsed, 1e-9),
                    2 * sink_options.buffer_bytes + batch_bytes};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_stream_io.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }
  // 16 cells x reps; smoke keeps the CTest run fast.
  const Plan plan = archive_plan(smoke ? 125 : 6250);
  const std::size_t threads = 8;
  const std::string dir =
      std::filesystem::temp_directory_path() / "calipers_bench_stream_io";
  std::filesystem::create_directories(dir);
  const std::string memory_csv = dir + "/in_memory.csv";
  const std::string streamed_csv = dir + "/streamed.csv";

  io::print_banner(std::cout, "Stream I/O: TableSink vs CsvStreamSink");
  std::cout << "Plan: " << plan.size() << " runs, archive at " << threads
            << " worker thread(s), "
            << std::thread::hardware_concurrency()
            << " hardware thread(s).\n\n";

  // The streamed resident footprint is a *constant*; scale the smoke
  // run's buffers down with its plan so the bounded-memory comparison
  // stays meaningful at toy campaign sizes too.
  const std::size_t sink_batch = smoke ? 256 : 4096;
  const std::size_t buffer_bytes = smoke ? (1u << 14) : (1u << 20);

  bench::Checker check;
  const ModeResult in_memory = run_in_memory(plan, threads, memory_csv);
  const ModeResult streamed =
      run_streamed(plan, threads, streamed_csv, sink_batch, buffer_bytes);

  check.expect(slurp(memory_csv) == slurp(streamed_csv),
               "streamed archive byte-identical to in-memory write_csv");
  check.expect(streamed.resident_bytes < in_memory.resident_bytes,
               "streamed resident proxy below in-memory resident proxy");

  io::TextTable table({"mode", "records/s", "resident bytes (proxy)"});
  table.add_row({"in-memory", io::TextTable::num(in_memory.records_per_sec, 0),
                 std::to_string(in_memory.resident_bytes)});
  table.add_row({"streamed", io::TextTable::num(streamed.records_per_sec, 0),
                 std::to_string(streamed.resident_bytes)});
  table.print(std::cout);
  std::cout << "\nResident-memory ratio (in-memory / streamed): "
            << io::TextTable::num(
                   static_cast<double>(in_memory.resident_bytes) /
                       static_cast<double>(streamed.resident_bytes),
                   1)
            << "x\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  char buf[64];
  json << "{\n  \"bench\": \"stream_io\",\n  \"runs\": " << plan.size()
       << ",\n  \"threads\": " << threads << ",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n";
  std::snprintf(buf, sizeof buf, "%.1f", in_memory.records_per_sec);
  json << "  \"in_memory\": {\"records_per_sec\": " << buf
       << ", \"resident_bytes_proxy\": " << in_memory.resident_bytes
       << "},\n";
  std::snprintf(buf, sizeof buf, "%.1f", streamed.records_per_sec);
  json << "  \"streamed\": {\"records_per_sec\": " << buf
       << ", \"resident_bytes_proxy\": " << streamed.resident_bytes
       << "}\n}\n";
  std::cout << "Wrote " << json_path << "\n";

  std::filesystem::remove_all(dir);
  return check.exit_code();
}
