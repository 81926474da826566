// Query-engine bench: a selective group-by query evaluated directly on
// the bbx bundle (zone-map pruning + projected decode + block-parallel
// fold) versus the old analysis path (BbxReader full materialize, then
// filter + stats::group_metric), on the 100k-run archive workload.
// Emits BENCH_query.json and enforces the acceptance criteria as
// checks: >= 3x speedup for the selective (~10% of blocks) query,
// byte-identical aggregate CSV at 1, 2 and 8 workers, value identity
// against the materialize path, > 0 blocks pruned, and a still-working
// (pruning-free) query against a PR-4-era zone-less manifest.
//
//   bench_query [json-path] [--smoke]
//
// --smoke shrinks the plan and skips the speedup floor (tiny inputs
// time too noisily); it is registered with CTest as an acceptance run.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "core/worker_pool.hpp"
#include "io/archive/bbx_reader.hpp"
#include "io/archive/bbx_writer.hpp"
#include "io/table_fmt.hpp"
#include "query/engine.hpp"
#include "simd/dispatch.hpp"
#include "stats/group.hpp"

using namespace cal;

namespace {

Plan query_plan(std::size_t reps) {
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

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_query.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }
  const Plan plan = query_plan(smoke ? 125 : 6250);  // 16 cells x reps
  const std::string dir =
      (std::filesystem::temp_directory_path() / "calipers_bench_query")
          .string();
  std::filesystem::remove_all(dir);

  io::print_banner(std::cout,
                   "Query engine: selective group-by vs full materialize");

  // Archive the campaign once (many small blocks so ~10% selectivity
  // maps onto a pruneable block subset).
  {
    Engine::Options options;
    options.seed = 19;
    options.threads = 8;
    const Engine engine({"time_us", "aux"}, options);
    io::archive::BbxWriterOptions writer_options;
    writer_options.shards = 4;
    writer_options.block_records = smoke ? 64 : 2048;
    io::archive::BbxWriter sink(dir, writer_options);
    engine.run(plan, cheap_measure, sink);
  }
  const io::archive::BbxReader reader(dir);
  std::cout << "Plan: " << plan.size() << " runs, "
            << reader.manifest().blocks.size() << " blocks in "
            << reader.manifest().shard_count << " shard(s).\n\n";

  bench::Checker check;
  core::WorkerPool pool(8, "bench-query");

  // The analysis both paths must agree on: mean/sd/count of time_us by
  // (size, stride) over the first ~10% of the campaign -- the "re-read
  // the warmup window" slice every temporal diagnostic starts from.
  const std::int64_t cutoff = static_cast<std::int64_t>(plan.size() / 10);
  query::QuerySpec spec;
  spec.where = query::Expr::cmp({query::ColumnKind::kSequence, "sequence"},
                                query::CmpOp::kLt, Value(cutoff));
  spec.group_by = {"size", "stride"};
  spec.aggregates = {query::Aggregate{query::AggKind::kCount, ""},
                     *query::parse_aggregate("mean:time_us"),
                     *query::parse_aggregate("sd:time_us")};
  const query::BundleQuery bundle(reader);

  // Baseline: full materialize + filter + group (the pre-query path).
  double baseline_s = 0.0;
  std::vector<stats::GroupSummary> baseline;
  {
    const auto t0 = std::chrono::steady_clock::now();
    const RawTable table = reader.read_all(&pool);
    const RawTable filtered =
        table.filter_records([&](const RawRecord& r) {
          return static_cast<std::int64_t>(r.sequence) < cutoff;
        });
    baseline = stats::summarize_groups(filtered, {"size", "stride"},
                                       "time_us");
    baseline_s = seconds_since(t0);
  }

  // Query path at 1 / 2 / 8 workers; CSVs must match byte for byte.
  double query_s[3] = {0, 0, 0};
  std::string csv_at[3];
  query::ScanStats scan;
  const std::size_t worker_counts[3] = {1, 2, 8};
  for (int w = 0; w < 3; ++w) {
    core::WorkerPool query_pool(worker_counts[w], "bench-query-w");
    const auto t0 = std::chrono::steady_clock::now();
    const query::QueryResult result = bundle.aggregate(
        spec, worker_counts[w] > 1 ? &query_pool : nullptr);
    query_s[w] = seconds_since(t0);
    std::ostringstream csv;
    result.write_csv(csv);
    csv_at[w] = csv.str();
    scan = result.scan;

    if (w == 0) {
      // Value identity against the baseline summaries.
      bool identical = result.rows.size() == baseline.size();
      for (std::size_t g = 0; identical && g < baseline.size(); ++g) {
        identical = result.rows[g].key == baseline[g].key &&
                    result.rows[g].values[0] ==
                        static_cast<double>(baseline[g].n) &&
                    std::abs(result.rows[g].values[1] - baseline[g].mean) <=
                        1e-12 * std::max(1.0, std::abs(baseline[g].mean)) &&
                    std::abs(result.rows[g].values[2] - baseline[g].sd) <=
                        1e-9 * std::max(1.0, baseline[g].sd);
      }
      check.expect(identical,
                   "query aggregates value-identical to materialize + "
                   "stats::summarize_groups");
    }
  }
  check.expect(csv_at[1] == csv_at[0] && csv_at[2] == csv_at[0],
               "aggregate CSV byte-identical at 1, 2 and 8 workers");
  check.expect(scan.blocks_pruned > 0,
               "zone maps pruned blocks for the selective predicate");

  const double best_query_s = std::min({query_s[0], query_s[1], query_s[2]});
  const double speedup = baseline_s / std::max(best_query_s, 1e-9);
  if (!smoke) {
    check.expect(speedup >= 3.0,
                 "selective query >= 3x faster than full materialize");
  }

  // SIMD dispatch: a full-bundle scan with a metric predicate (zone
  // maps cannot prune a lognormal metric, so every block decompresses,
  // decodes and evaluates the predicate's column, and folds survivors)
  // with the kernel table pinned to the scalar tier vs the best level.
  // 1 worker, best of 5 repetitions, so the comparison is kernel-bound
  // rather than pool-scheduling noise.
  query::QuerySpec scan_spec;
  scan_spec.where = query::Expr::cmp({query::ColumnKind::kNamed, "time_us"},
                                     query::CmpOp::kGe, Value(512.0));
  scan_spec.aggregates = {query::Aggregate{query::AggKind::kCount, ""},
                          *query::parse_aggregate("mean:time_us"),
                          *query::parse_aggregate("sd:time_us")};
  double simd_scalar_s = 0.0, simd_best_s = 0.0;
  {
    const simd::Level before = simd::active_level();
    const auto timed = [&](simd::Level level, std::string* csv_out) {
      simd::set_level(level);
      double best_s = 1e9;
      for (int r = 0; r < 5; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const query::QueryResult result = bundle.aggregate(scan_spec);
        best_s = std::min(best_s, seconds_since(t0));
        std::ostringstream csv;
        result.write_csv(csv);
        *csv_out = csv.str();
      }
      return best_s;
    };
    std::string csv_scalar, csv_best;
    simd_scalar_s = timed(simd::Level::kScalar, &csv_scalar);
    simd_best_s = timed(simd::best_supported(), &csv_best);
    simd::set_level(before);
    check.expect(!csv_scalar.empty() && csv_scalar == csv_best,
                 "full-scan aggregate CSV byte-identical at scalar and "
                 "best SIMD levels");
  }
  const double simd_speedup = simd_scalar_s / std::max(simd_best_s, 1e-9);
  if (!smoke && simd::best_supported() != simd::Level::kScalar) {
    check.expect(simd_speedup >= 2.0,
                 "dispatched kernels >= 2x scalar tier on the full-bundle "
                 "scan");
  }

  // PR-4-era compatibility: strip the zone maps, re-query, same bytes.
  {
    io::archive::Manifest m = io::archive::Manifest::load(dir);
    m.version = 1;
    m.zones.clear();
    std::ofstream out(dir + "/" +
                          std::string(io::archive::Manifest::file_name()),
                      std::ios::binary | std::ios::trunc);
    m.write(out);
    out.close();
    const io::archive::BbxReader v1_reader(dir);
    const query::QueryResult v1_result =
        query::BundleQuery(v1_reader).aggregate(spec, &pool);
    std::ostringstream csv;
    v1_result.write_csv(csv);
    check.expect(v1_result.scan.blocks_pruned == 0,
                 "zone-less (version 1) manifest prunes nothing");
    check.expect(csv.str() == csv_at[0],
                 "zone-less bundle query byte-identical to pruned query");
  }

  io::TextTable table({"path", "seconds", "records decoded", "blocks"});
  table.add_row({"materialize + group", io::TextTable::num(baseline_s, 4),
                 std::to_string(reader.size()),
                 std::to_string(scan.blocks_total)});
  table.add_row({"query (1 worker)", io::TextTable::num(query_s[0], 4),
                 std::to_string(scan.records_scanned),
                 std::to_string(scan.blocks_scanned)});
  table.add_row({"query (8 workers)", io::TextTable::num(query_s[2], 4),
                 std::to_string(scan.records_scanned),
                 std::to_string(scan.blocks_scanned)});
  table.print(std::cout);
  std::cout << "\nSelective query speedup over full materialize: "
            << io::TextTable::num(speedup, 2) << "x (pruned "
            << scan.blocks_pruned << " of " << scan.blocks_total
            << " blocks).\nSIMD dispatch ("
            << simd::to_string(simd::best_supported())
            << " vs scalar) on the full-bundle metric scan: "
            << io::TextTable::num(simd_speedup, 2) << "x.\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  char buf[64];
  json << "{\n  \"bench\": \"query\",\n  \"runs\": " << plan.size()
       << ",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"blocks_total\": " << scan.blocks_total
       << ",\n  \"blocks_pruned\": " << scan.blocks_pruned
       << ",\n  \"records_scanned\": " << scan.records_scanned
       << ",\n  \"records_matched\": " << scan.records_matched << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", baseline_s);
  json << "  \"materialize_group_seconds\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", query_s[0]);
  json << "  \"query_seconds_1_worker\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", query_s[1]);
  json << "  \"query_seconds_2_workers\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", query_s[2]);
  json << "  \"query_seconds_8_workers\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.2f", speedup);
  json << "  \"selective_speedup_vs_materialize\": " << buf << ",\n";
  json << "  \"simd_level\": \"" << simd::to_string(simd::best_supported())
       << "\",\n";
  std::snprintf(buf, sizeof buf, "%.6f", simd_scalar_s);
  json << "  \"full_scan_seconds_scalar_simd\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", simd_best_s);
  json << "  \"full_scan_seconds_best_simd\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.2f", simd_speedup);
  json << "  \"simd_speedup_scalar_vs_best\": " << buf << "\n}\n";
  std::cout << "Wrote " << json_path << "\n";

  std::filesystem::remove_all(dir);
  return check.exit_code();
}
