// Byte-identity oracle for the engine -> sink path.
//
// Fixed synthetic campaigns are archived into a 4-shard bbx bundle and
// through io::CsvStreamSink, and the CRC32 of every shard, the manifest
// and the CSV is compared against digests pinned when the record types
// still owned their factor and metric vectors.  Any change to how a
// record carries its values -- shared factor rows, inline metrics, a
// spill past the inline capacity -- must leave every archived byte where
// it was.  The campaigns cover level-only plans (one interned row per
// cell), a plan with a sampled factor (one row per run), CSV-quoted
// string levels, non-finite metrics, and a PMU campaign wider than the
// inline metric capacity.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "benchlib/whitebox/mem_calibration.hpp"
#include "core/engine.hpp"
#include "io/archive/bbx_writer.hpp"
#include "io/archive/crc32.hpp"
#include "io/archive/manifest.hpp"
#include "io/stream_sink.hpp"

namespace cal {
namespace {

namespace fs = std::filesystem;

/// CRC32 of every shard (in shard order), then the manifest, then the CSV.
using Digests = std::vector<std::uint32_t>;

std::uint32_t file_crc(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return io::archive::crc32(bytes.data(), bytes.size());
}

std::string hex(const Digests& digests) {
  std::string out;
  for (const std::uint32_t d : digests) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08Xu, ", d);
    out += buf;
  }
  return out;
}

constexpr std::size_t kShards = 4;

/// Runs `plan` twice -- into a 4-shard bbx bundle and into a CSV stream --
/// and returns the digests of everything written.
Digests archive_digests(const Plan& plan, const Engine& engine,
                        const MeasureFactory& factory, const char* tag,
                        std::size_t block_records = 256) {
  const fs::path dir = fs::temp_directory_path() /
                       ("calipers_byte_identity_" + std::string(tag) + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  Digests digests;
  {
    io::archive::BbxWriter::Options options;
    options.shards = kShards;
    options.block_records = block_records;
    io::archive::BbxWriter writer(dir.string(), options);
    engine.run(plan, factory, writer);
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    digests.push_back(
        file_crc(dir / io::archive::Manifest::shard_file_name(s)));
  }
  digests.push_back(file_crc(dir / io::archive::Manifest::file_name()));
  fs::remove_all(dir);

  std::ostringstream csv;
  {
    io::CsvStreamSink sink(csv);
    engine.run(plan, factory, sink);
  }
  const std::string bytes = csv.str();
  digests.push_back(io::archive::crc32(bytes.data(), bytes.size()));
  return digests;
}

Engine make_engine(std::size_t threads, std::vector<std::string> metrics) {
  Engine::Options options;
  options.seed = 4242;
  options.threads = threads;
  options.sink_batch = 300;  // windows straddle the 256-record blocks
  return Engine(std::move(metrics), options);
}

/// A latency model over (size, threads, variant) with log-normal noise;
/// every 97th cell reports non-finite or signed-zero values so the
/// archive's special-value paths are pinned too.
MeasureResult synthetic_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double size = run.values[0].as_real();
  const double threads = run.values[1].as_real();
  const std::string& variant = run.values[2].as_string();
  const double per_byte = 0.1 + 0.05 * static_cast<double>(variant.size());
  const double latency_us =
      2.0 + size * per_byte * 1e-3 / threads * ctx.rng->lognormal_factor(0.05);
  double energy = latency_us * 1e-6 * (10.0 + 5.0 * threads);
  switch (run.cell_index % 97) {
    case 3: energy = std::numeric_limits<double>::quiet_NaN(); break;
    case 5: energy = std::numeric_limits<double>::infinity(); break;
    case 7: energy = -0.0; break;
    default: break;
  }
  return {{latency_us, size / latency_us, energy}, latency_us * 1e-6};
}

const std::vector<Value> kVariants = {Value("scalar"), Value("un,rolled"),
                                      Value("vec\"tor"), Value("prefetch")};

/// Calbench-shaped, level-only: int, int and string level factors.
Plan level_plan() {
  return DesignBuilder(2024)
      .add(Factor::levels("size_bytes", {Value(64), Value(4096),
                                         Value(1 << 20), Value(1 << 26)}))
      .add(Factor::levels("threads", {Value(1), Value(2), Value(4)}))
      .add(Factor::levels("variant", kVariants))
      .replications(40)  // 48 cells x 40 = 1920 runs
      .build();
}

/// A sampled size next to level factors: every run draws its own row.
Plan sampled_plan() {
  return DesignBuilder(77)
      .add(Factor::log_uniform_int("size_bytes", 16, 1 << 24))
      .add(Factor::levels("threads", {Value(1), Value(8)}))
      .add(Factor::levels("variant", kVariants))
      .replications(3)
      .samples_per_cell(90)  // 8 cells x 3 x 90 = 2160 runs
      .build();
}

const MeasureFactory kSynthetic = [](std::size_t) {
  return MeasureFn(synthetic_measure);
};

// Digests pinned from the owned-vector record types; see the file comment.
const Digests kLevelDigests = {0x4DB73AB0u, 0x8189D54Au, 0x123B37CBu,
                               0x1B837BA5u, 0xCA40CA37u, 0x9AD2B29Bu};
const Digests kSampledDigests = {0xC2E5DF30u, 0x412B181Au, 0xF3E1D7DAu,
                                 0x0528E8A6u, 0x09F2A76Au, 0x56545918u};
const Digests kWideDigests = {0x6F4C7047u, 0x84D99C0Cu, 0xECCEC5EDu,
                              0xA92BB2F1u, 0x43C4E6F1u, 0x1DCBAC57u};

TEST(ByteIdentity, LevelOnlyCampaignMatchesPinnedDigests) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    const Digests got =
        archive_digests(level_plan(),
                        make_engine(threads, {"latency_us", "throughput",
                                              "energy_j"}),
                        kSynthetic, "level");
    EXPECT_EQ(got, kLevelDigests) << "threads=" << threads << ": " << hex(got);
  }
}

TEST(ByteIdentity, SampledFactorCampaignMatchesPinnedDigests) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    const Digests got =
        archive_digests(sampled_plan(),
                        make_engine(threads, {"latency_us", "throughput",
                                              "energy_j"}),
                        kSynthetic, "sampled");
    EXPECT_EQ(got, kSampledDigests)
        << "threads=" << threads << ": " << hex(got);
  }
}

/// The simulated memory campaign with every PMU event as a metric column:
/// far wider than a record's inline metric capacity.
TEST(ByteIdentity, WidePmuCampaignMatchesPinnedDigests) {
  sim::mem::MemSystemConfig config;
  config.machine = sim::machines::core_i7_2600();
  config.governor = sim::cpu::GovernorKind::kPerformance;
  config.system_seed = 1234;
  config.pool_pages = 1024;
  config.enable_pmu = true;

  benchlib::MemPlanOptions plan_options;
  plan_options.size_levels = {16 * 1024, 128 * 1024, 1024 * 1024};
  plan_options.strides = {1, 16};
  plan_options.elem_bytes = {4, 8};
  plan_options.nloops = {4};
  plan_options.replications = 6;  // 12 cells x 6 = 72 runs
  const Plan plan = benchlib::make_mem_plan(plan_options);

  std::vector<std::string> metrics = {"bandwidth_mbps", "elapsed_s",
                                      "avg_freq_ghz", "l1_hit_rate"};
  const auto& events = sim::pmu::all_events();
  for (const sim::pmu::Event e : events) {
    metrics.push_back(std::string("pmu.") + sim::pmu::event_name(e));
  }
  const MeasureFactory factory = [&](std::size_t) {
    auto system = std::make_shared<sim::mem::MemSystem>(config);
    MeasureFn measure = benchlib::mem_measure_fn(
        *system, std::vector<sim::pmu::Event>(events.begin(), events.end()));
    return MeasureFn([system, measure](const PlannedRun& run,
                                       MeasureContext& ctx) {
      return measure(run, ctx);
    });
  };
  Engine::Options options;
  options.seed = 41;
  options.sink_batch = 20;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    options.threads = threads;
    const Digests got =
        archive_digests(plan, Engine(metrics, options), factory, "wide",
                        /*block_records=*/16);
    EXPECT_EQ(got, kWideDigests) << "threads=" << threads << ": " << hex(got);
  }
}

}  // namespace
}  // namespace cal
