// Archive-format bench: write/read throughput and on-disk size of the
// bbx sharded binary archive versus the streamed CSV archive, on the
// same 100k-run campaign the stream-I/O bench uses.  Emits
// BENCH_archive.json and enforces the acceptance criteria as checks:
// compression ratio >= 2x over CSV and bbx parallel read throughput >=
// the CSV reader (medians of replicated reads in shuffled interleaved
// order), with both readbacks value-identical to the in-memory table.
//
//   bench_archive [json-path] [--smoke]
//
// --smoke shrinks the plan and is registered with CTest as a smoke run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "core/worker_pool.hpp"
#include "io/archive/bbx_reader.hpp"
#include "io/archive/bbx_writer.hpp"
#include "io/stream_sink.hpp"
#include "io/table_fmt.hpp"
#include "simd/dispatch.hpp"
#include "stats/descriptive.hpp"

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

Engine make_engine(std::size_t threads) {
  Engine::Options options;
  options.seed = 19;
  options.threads = threads;
  return Engine({"time_us", "aux"}, options);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uintmax_t dir_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Value identity between two tables: same schema/order, Value-equal
/// factors, bit-equal metrics and timestamps.
bool tables_identical(const RawTable& a, const RawTable& b) {
  if (a.factor_names() != b.factor_names() ||
      a.metric_names() != b.metric_names() || a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RawRecord& ra = a.records()[i];
    const RawRecord& rb = b.records()[i];
    if (ra.sequence != rb.sequence || ra.cell_index != rb.cell_index ||
        ra.replicate != rb.replicate || ra.timestamp_s != rb.timestamp_s ||
        ra.factors != rb.factors || ra.metrics != rb.metrics) {
      return false;
    }
  }
  return true;
}

/// Median and quartiles of a replicate sample.
struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

Quartiles quartiles(const std::vector<double>& xs) {
  return Quartiles{stats::quantile(xs, 0.25), stats::median(xs),
                   stats::quantile(xs, 0.75)};
}

std::string quartile_json(const Quartiles& q) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"median\": %.1f, \"q1\": %.1f, \"q3\": %.1f}", q.median,
                q.q1, q.q3);
  return buf;
}

struct Throughput {
  double write_rps = 0.0;
  double read_rps = 0.0;
  std::uintmax_t bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_archive.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }
  const Plan plan = archive_plan(smoke ? 125 : 6250);  // 16 cells x reps
  const std::size_t threads = 8;
  const std::size_t shards = 4;
  const std::string dir =
      std::filesystem::temp_directory_path() /
      ("calipers_bench_archive_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string csv_path = dir + "/results.csv";
  const std::string bbx_dir = dir + "/bundle";

  io::print_banner(std::cout, "Archive formats: CsvStreamSink vs bbx");
  std::cout << "Plan: " << plan.size() << " runs, " << threads
            << " engine worker(s), " << shards << " bbx shard(s).\n\n";

  const Engine engine = make_engine(threads);
  bench::Checker check;

  // Reference table for value-identity checks (in-memory path).
  const RawTable reference = make_engine(1).run(plan, cheap_measure);

  Throughput csv, bbx;
  {
    const auto t0 = std::chrono::steady_clock::now();
    io::CsvStreamSink sink(csv_path);
    engine.run(plan, cheap_measure, sink);
    csv.write_rps = static_cast<double>(plan.size()) /
                    std::max(seconds_since(t0), 1e-9);
    csv.bytes = std::filesystem::file_size(csv_path);
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    io::archive::BbxWriter sink(bbx_dir, {.shards = shards});
    engine.run(plan, cheap_measure, sink);
    bbx.write_rps = static_cast<double>(plan.size()) /
                    std::max(seconds_since(t0), 1e-9);
    bbx.bytes = dir_bytes(bbx_dir);
  }

  // Read throughput, CSV reader vs bbx parallel and sequential decode:
  // kReadReplicates timed reads of each, run in one shuffled interleaved
  // order so drift, page-cache warmth, heap growth and neighbouring load
  // hit every arm alike.  The gate compares medians; quartiles go into
  // the JSON.  An untimed sequential read first supplies the reference
  // table the timed reads are checked against.
  constexpr std::size_t kReadReplicates = 11;
  enum Arm { kCsvRead, kBbxParallel, kBbxSequential, kArms };
  RawTable csv_back({}, {});
  RawTable bbx_back({}, {});
  std::vector<double> read_rps[kArms];
  {
    const io::archive::BbxReader reader(bbx_dir);
    bbx_back = reader.read_all();
    core::WorkerPool pool(threads, "bbx-bench");
    std::vector<int> order(kArms * kReadReplicates);
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int>(i % kArms);
    }
    std::mt19937_64 rng(20261018);
    std::shuffle(order.begin(), order.end(), rng);
    bool bbx_identical = true;
    for (const int arm : order) {
      const auto t1 = std::chrono::steady_clock::now();
      RawTable back({}, {});
      if (arm == kCsvRead) {
        std::ifstream in(csv_path);
        back = RawTable::read_csv(in, plan.factors().size());
      } else {
        back = reader.read_all(arm == kBbxParallel ? &pool : nullptr);
      }
      read_rps[arm].push_back(static_cast<double>(back.size()) /
                              std::max(seconds_since(t1), 1e-9));
      if (arm == kCsvRead) {
        csv_back = std::move(back);
      } else {
        bbx_identical &= tables_identical(bbx_back, back);
      }
    }
    check.expect(bbx_identical,
                 "bbx timed decodes identical to the reference decode");
  }
  const Quartiles csv_read = quartiles(read_rps[kCsvRead]);
  const Quartiles bbx_read = quartiles(read_rps[kBbxParallel]);
  const Quartiles bbx_seq_read = quartiles(read_rps[kBbxSequential]);
  csv.read_rps = csv_read.median;
  bbx.read_rps = bbx_read.median;

  // SIMD dispatch: the projected read path (decompress + checksum +
  // single-column decode, no record materialization -- what the query
  // engine drives) with the kernel table pinned to the scalar tier vs
  // the best level, best of 3 repetitions each.
  double simd_scalar_s = 1e9, simd_best_s = 1e9;
  {
    const io::archive::BbxReader reader(bbx_dir);
    const simd::Level before = simd::active_level();
    const auto timed = [&](simd::Level level, double* best_s) {
      simd::set_level(level);
      std::vector<double> column;
      for (int r = 0; r < 3; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        column = reader.metric_column("time_us");
        *best_s = std::min(*best_s, seconds_since(t0));
      }
      return column;
    };
    const std::vector<double> scalar_col =
        timed(simd::Level::kScalar, &simd_scalar_s);
    const std::vector<double> best_col =
        timed(simd::best_supported(), &simd_best_s);
    simd::set_level(before);
    check.expect(scalar_col == reference.metric_column("time_us") &&
                     scalar_col.size() == best_col.size() &&
                     std::memcmp(scalar_col.data(), best_col.data(),
                                 scalar_col.size() * sizeof(double)) == 0,
                 "bbx column decode bit-identical at scalar and best SIMD "
                 "levels");
  }
  const double simd_speedup = simd_scalar_s / std::max(simd_best_s, 1e-9);
  if (!smoke && simd::best_supported() != simd::Level::kScalar) {
    check.expect(simd_speedup >= 2.0,
                 "dispatched kernels >= 2x scalar tier on the projected "
                 "bbx read path");
  }

  const double ratio = static_cast<double>(csv.bytes) /
                       static_cast<double>(std::max<std::uintmax_t>(bbx.bytes, 1));
  check.expect(tables_identical(csv_back, reference),
               "CSV readback value-identical to in-memory table");
  check.expect(tables_identical(bbx_back, reference),
               "bbx readback value-identical to in-memory table");
  check.expect(ratio >= 2.0, "bbx compression ratio >= 2x over CSV");
  check.expect(bbx.read_rps >= csv.read_rps,
               "bbx parallel read throughput >= CSV reader (median of " +
                   std::to_string(kReadReplicates) + " interleaved reads)");

  io::TextTable table({"format", "write rec/s", "read rec/s", "bytes",
                       "bytes/record"});
  table.add_row({"csv", io::TextTable::num(csv.write_rps, 0),
                 io::TextTable::num(csv.read_rps, 0),
                 std::to_string(csv.bytes),
                 io::TextTable::num(static_cast<double>(csv.bytes) /
                                        static_cast<double>(plan.size()),
                                    1)});
  table.add_row({"bbx", io::TextTable::num(bbx.write_rps, 0),
                 io::TextTable::num(bbx.read_rps, 0),
                 std::to_string(bbx.bytes),
                 io::TextTable::num(static_cast<double>(bbx.bytes) /
                                        static_cast<double>(plan.size()),
                                    1)});
  table.print(std::cout);
  std::cout << "\nCompression ratio (csv / bbx bytes): "
            << io::TextTable::num(ratio, 2)
            << "x; bbx sequential read: "
            << io::TextTable::num(bbx_seq_read.median, 0)
            << " rec/s, parallel ("
            << threads << " workers): " << io::TextTable::num(bbx.read_rps, 0)
            << " rec/s.\nSIMD dispatch ("
            << simd::to_string(simd::best_supported())
            << " vs scalar) on the projected column read: "
            << io::TextTable::num(simd_speedup, 2) << "x.\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  char buf[64];
  json << "{\n  \"bench\": \"archive\",\n  \"runs\": " << plan.size()
       << ",\n  \"threads\": " << threads << ",\n  \"shards\": " << shards
       << ",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"read_replicates\": " << kReadReplicates << ",\n";
  std::snprintf(buf, sizeof buf, "%.1f", csv.write_rps);
  json << "  \"csv\": {\"write_records_per_sec\": " << buf;
  json << ", \"read_records_per_sec\": " << quartile_json(csv_read)
       << ", \"bytes\": " << csv.bytes << "},\n";
  std::snprintf(buf, sizeof buf, "%.1f", bbx.write_rps);
  json << "  \"bbx\": {\"write_records_per_sec\": " << buf;
  json << ", \"read_records_per_sec\": " << quartile_json(bbx_read);
  json << ", \"read_records_per_sec_sequential\": "
       << quartile_json(bbx_seq_read) << ", \"bytes\": " << bbx.bytes
       << "},\n";
  std::snprintf(buf, sizeof buf, "%.2f", ratio);
  json << "  \"compression_ratio_vs_csv\": " << buf << ",\n";
  json << "  \"simd_level\": \"" << simd::to_string(simd::best_supported())
       << "\",\n";
  std::snprintf(buf, sizeof buf, "%.6f", simd_scalar_s);
  json << "  \"column_read_seconds_scalar_simd\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", simd_best_s);
  json << "  \"column_read_seconds_best_simd\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.2f", simd_speedup);
  json << "  \"simd_column_read_speedup_scalar_vs_best\": " << buf << "\n}\n";
  std::cout << "Wrote " << json_path << "\n";

  std::filesystem::remove_all(dir);
  return check.exit_code();
}
