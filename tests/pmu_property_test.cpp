// Determinism property for the pmu.* campaign columns.
//
// ISSUE acceptance: counter columns must be byte-identical at any
// engine worker count and any CAL_SIMD level.  The counters are a pure
// function of each planned run (the hierarchy is flushed per measure,
// the per-run RNG is pre-split), so the raw CSV of a counting campaign
// -- and the bbx bundle it archives to, decoded at every SIMD tier --
// must not move by a byte when the execution schedule changes.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "benchlib/whitebox/mem_calibration.hpp"
#include "simd/dispatch.hpp"

namespace cal::benchlib {
namespace {

sim::mem::MemSystemConfig counting_config() {
  sim::mem::MemSystemConfig config;
  config.machine = sim::machines::core_i7_2600();
  // Performance governor + no daemon: time-independent, so the campaign
  // honours options.threads (the ondemand/daemon configs force 1).
  config.governor = sim::cpu::GovernorKind::kPerformance;
  config.system_seed = 1234;
  config.pool_pages = 8192;  // 32 MB: covers the largest planned buffer
  return config;
}

Plan counting_plan() {
  MemPlanOptions plan_options;
  plan_options.size_levels = {16 * 1024, 128 * 1024, 1024 * 1024,
                              16 * 1024 * 1024};
  plan_options.strides = {1, 16};
  plan_options.elem_bytes = {4, 8};
  plan_options.unrolls = {1, 8};
  plan_options.nloops = {10};
  plan_options.replications = 3;
  return make_mem_plan(plan_options);
}

std::string campaign_csv(std::size_t threads) {
  MemCampaignOptions options;
  options.threads = threads;
  options.pmu_events.assign(sim::pmu::all_events().begin(),
                            sim::pmu::all_events().end());
  const CampaignResult result =
      run_mem_campaign(counting_config(), counting_plan(), options);
  std::ostringstream out;
  result.table.write_csv(out);
  return out.str();
}

TEST(PmuProperty, CounterColumnsBitIdenticalAcrossWorkersAndSimdLevels) {
  const std::string reference = campaign_csv(1);
  // The counter columns really made it into the table.
  EXPECT_NE(reference.find("pmu.cycles"), std::string::npos);
  EXPECT_NE(reference.find("pmu.contention_waits"), std::string::npos);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(campaign_csv(threads), reference)
        << "pmu.* CSV diverged at threads=" << threads;
  }

  // The archived bundle round-trips byte-identically at every SIMD tier
  // the CPU supports (scalar always; avx2 when present).
  const auto dir =
      std::filesystem::temp_directory_path() / "calipers_pmu_property";
  std::filesystem::remove_all(dir);
  MemCampaignOptions options;
  options.pmu_events.assign(sim::pmu::all_events().begin(),
                            sim::pmu::all_events().end());
  const CampaignResult result =
      run_mem_campaign(counting_config(), counting_plan(), options);
  ArchiveOptions archive;
  archive.format = ArchiveFormat::kBbx;
  archive.block_records = 16;  // several blocks: exercise the decode loops
  result.write_dir(dir.string(), archive);

  const simd::Level saved = simd::active_level();
  for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    if (level > simd::best_supported()) continue;
    simd::set_level(level);
    const CampaignResult read = CampaignResult::read_dir(dir.string());
    std::ostringstream out;
    read.table.write_csv(out);
    EXPECT_EQ(out.str(), reference)
        << "bbx-decoded pmu.* CSV diverged at SIMD level "
        << simd::to_string(level);
  }
  simd::set_level(saved);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cal::benchlib
