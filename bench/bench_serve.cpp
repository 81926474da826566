// Serving bench: the query-server daemon versus the cold single-shot
// CLI path, on the 100k-run archive workload.  Emits BENCH_serve.json
// and enforces the acceptance criteria as checks: a warm-cache repeated
// selective query >= 2.5x faster than re-opening the bundle per query
// (the floor was 5x against the scalar decoder; the SIMD kernel layer
// cut the cold decode itself ~3x, shrinking the cache's relative win),
// responses byte-identical to the local query path at every worker
// count and cache configuration (including a zero byte budget), cache
// hits on the warm pass, and request coalescing observed under
// concurrent identical load.
//
//   bench_serve [json-path] [--smoke]
//
// --smoke shrinks the plan and skips the speedup floor (tiny inputs
// time too noisily); it is registered with CTest as an acceptance run.

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
#include "io/archive/bbx_reader.hpp"
#include "io/archive/bbx_writer.hpp"
#include "io/table_fmt.hpp"
#include "query/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace cal;

namespace {

Plan serve_plan(std::size_t reps) {
  return DesignBuilder(83)
      .add(Factor::levels("size", {Value(1024), Value(8192), Value(65536),
                                   Value(262144)}))
      .add(Factor::levels("stride", {Value(1), Value(4), Value(16),
                                     Value(64)}))
      .replications(reps)
      .randomize(true)
      .build();
}

MeasureResult cheap_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double base =
      run.values[0].as_real() / (1.0 + run.values[1].as_real());
  const double value = base * ctx.rng->lognormal_factor(0.2);
  return MeasureResult{{value, value * 0.5}, value * 1e-9};
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }
  const Plan plan = serve_plan(smoke ? 125 : 6250);  // 16 cells x reps
  const std::string root =
      (std::filesystem::temp_directory_path() / "calipers_bench_serve")
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root + "/catalog");

  io::print_banner(std::cout,
                   "Query server: cached, coalescing serving vs cold "
                   "single-shot queries");

  {
    Engine::Options options;
    options.seed = 19;
    options.threads = 8;
    const Engine engine({"time_us", "aux"}, options);
    io::archive::BbxWriterOptions writer_options;
    writer_options.shards = 4;
    writer_options.block_records = smoke ? 64 : 512;
    io::archive::BbxWriter sink(root + "/catalog/mem", writer_options);
    engine.run(plan, cheap_measure, sink);
  }

  bench::Checker check;

  // The serving workload: a factor-selective aggregate an analyst would
  // refresh over and over.  A randomized plan spreads the factor levels
  // across every block, so zone maps cannot prune it: the cold path
  // decodes the whole bundle each time, which is exactly the work the
  // decoded-block cache exists to amortize.
  serve::Request request;
  request.kind = serve::RequestKind::kAggregate;
  request.bundle = "mem";
  request.where = "size == 1024 && stride == 1";
  request.group_by = {"size", "stride"};
  request.aggregates = {"count", "mean:time_us", "sd:time_us"};

  // Reference bytes: the local (CLI) query path.
  std::string reference_csv;
  {
    const io::archive::BbxReader reader(root + "/catalog/mem");
    query::QuerySpec spec;
    spec.where = query::parse_expr(request.where);
    spec.group_by = request.group_by;
    for (const std::string& text : request.aggregates) {
      spec.aggregates.push_back(*query::parse_aggregate(text));
    }
    std::ostringstream csv;
    query::BundleQuery(reader).aggregate(spec).write_csv(csv);
    reference_csv = csv.str();
  }

  const int kQueries = smoke ? 5 : 20;

  // Baseline: cold single-shot -- every query pays a fresh BbxReader
  // (manifest parse) plus a full selective scan, the cost of invoking
  // campaign_query once per question.
  double cold_single_shot_s = 0.0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int q = 0; q < kQueries; ++q) {
      const io::archive::BbxReader reader(root + "/catalog/mem");
      query::QuerySpec spec;
      spec.where = query::parse_expr(request.where);
      spec.group_by = request.group_by;
      for (const std::string& text : request.aggregates) {
        spec.aggregates.push_back(*query::parse_aggregate(text));
      }
      std::ostringstream csv;
      query::BundleQuery(reader).aggregate(spec).write_csv(csv);
      if (csv.str() != reference_csv) {
        check.expect(false, "cold single-shot bytes stable");
      }
    }
    cold_single_shot_s = seconds_since(t0) / kQueries;
  }

  // The daemon, exercised over its real unix socket.
  serve::ServerOptions server_options;
  server_options.socket_path = root + "/serve.sock";
  server_options.workers = 8;
  serve::QueryServer server(root + "/catalog", server_options);
  server.start();

  double server_cold_s = 0.0;
  {
    serve::QueryClient client =
        serve::QueryClient::connect_unix(server.socket_path());
    const auto t0 = std::chrono::steady_clock::now();
    const serve::Response cold = client.call(request);
    server_cold_s = seconds_since(t0);
    check.expect(cold.status == serve::Status::kOk &&
                     cold.body == reference_csv,
                 "server cold response byte-identical to the local path");
  }

  double warm_s = 0.0;
  {
    serve::QueryClient client =
        serve::QueryClient::connect_unix(server.socket_path());
    bool identical = true;
    const auto t0 = std::chrono::steady_clock::now();
    for (int q = 0; q < kQueries; ++q) {
      identical = identical && client.call(request).body == reference_csv;
    }
    warm_s = seconds_since(t0) / kQueries;
    check.expect(identical,
                 "warm responses byte-identical across repeats");
  }
  const auto warm_stats = server.cache_stats();
  check.expect(warm_stats.hits > 0, "warm pass served from the cache");

  const double warm_speedup = cold_single_shot_s / std::max(warm_s, 1e-9);
  if (!smoke) {
    check.expect(warm_speedup >= 2.5,
                 "warm repeated query >= 2.5x over cold single-shot");
  }

  // Coalescing under concurrent identical load: some requests must ride
  // a leader's execution, and every rider still gets the exact bytes.
  double coalesced_load_s = 0.0;
  {
    constexpr int kThreads = 8;
    bool identical = true;
    const auto t0 = std::chrono::steady_clock::now();
    for (int round = 0; round < 25 && server.counters().coalesced == 0;
         ++round) {
      std::vector<std::string> bodies(kThreads);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          serve::QueryClient client =
              serve::QueryClient::connect_unix(server.socket_path());
          bodies[t] = client.call(request).body;
        });
      }
      for (auto& t : threads) t.join();
      for (const auto& body : bodies) {
        identical = identical && body == reference_csv;
      }
    }
    coalesced_load_s = seconds_since(t0);
    check.expect(identical, "coalesced responses byte-identical");
    check.expect(server.counters().coalesced > 0,
                 "concurrent identical requests coalesced");
  }
  const auto final_stats = server.cache_stats();
  const auto final_counters = server.counters();
  server.stop();

  // Byte-identity matrix: worker count x cache configuration, including
  // a zero budget (retains nothing) and a budget small enough to evict
  // constantly.
  {
    bool identical = true;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      for (int cache_mode = 0; cache_mode < 3; ++cache_mode) {
        serve::ServerOptions options;
        options.socket_path = root + "/matrix.sock";
        options.workers = workers;
        if (cache_mode == 0) {
          options.cache.byte_budget = 0;  // retains nothing
        } else if (cache_mode == 1) {
          options.cache.byte_budget = 64u << 10;  // evicts constantly
        }
        serve::QueryServer matrix_server(root + "/catalog", options);
        matrix_server.start();
        for (int pass = 0; pass < 2; ++pass) {  // cold then warm
          const serve::Response response = matrix_server.execute(request);
          identical = identical &&
                      response.status == serve::Status::kOk &&
                      response.body == reference_csv;
        }
        matrix_server.stop();
      }
    }
    check.expect(identical,
                 "byte-identical at workers {1,2,8} x cache "
                 "{budget 0, evicting, default}, cold and warm");
  }

  io::TextTable table({"path", "seconds/query"});
  table.add_row({"cold single-shot (fresh reader)",
                 io::TextTable::num(cold_single_shot_s, 5)});
  table.add_row({"server cold (first request)",
                 io::TextTable::num(server_cold_s, 5)});
  table.add_row({"server warm (cached)", io::TextTable::num(warm_s, 5)});
  table.print(std::cout);
  std::cout << "\nWarm-cache speedup over cold single-shot: "
            << io::TextTable::num(warm_speedup, 2) << "x (cache: "
            << final_stats.hits << " hits, " << final_stats.inserts
            << " inserts, " << final_counters.coalesced
            << " coalesced requests).\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  char buf[64];
  json << "{\n  \"bench\": \"serve\",\n  \"host\": "
       << bench::host_json("bench_serve")
       << ",\n  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n  \"runs\": " << plan.size()
       << ",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"queries_per_pass\": " << kQueries
       << ",\n  \"cache_hits\": " << final_stats.hits
       << ",\n  \"cache_inserts\": " << final_stats.inserts
       << ",\n  \"cache_bytes\": " << final_stats.bytes
       << ",\n  \"coalesced_requests\": " << final_counters.coalesced
       << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", cold_single_shot_s);
  json << "  \"cold_single_shot_seconds_per_query\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", server_cold_s);
  json << "  \"server_cold_seconds\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", warm_s);
  json << "  \"server_warm_seconds_per_query\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", coalesced_load_s);
  json << "  \"coalesced_load_seconds\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.2f", warm_speedup);
  json << "  \"warm_speedup_vs_cold_single_shot\": " << buf << "\n}\n";
  std::cout << "Wrote " << json_path << "\n";

  std::filesystem::remove_all(root);
  return check.exit_code();
}
