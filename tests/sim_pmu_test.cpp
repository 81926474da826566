// Unit suite for the simulated PMU (sim/pmu): event naming, snapshot
// deltas, and every model seam that feeds the counter file -- cache
// hit/miss accounting, the counter-exact nloops extrapolation, core
// cycles / governor transitions, scheduler preemptions, contention
// waits, and the obs::metrics bridge.

#include "sim/pmu/pmu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"
#include "sim/cpu/core.hpp"
#include "sim/machine.hpp"
#include "sim/mem/contention.hpp"
#include "sim/mem/hierarchy.hpp"
#include "sim/mem/stride_bench.hpp"
#include "sim/os/scheduler.hpp"

namespace cal::sim {
namespace {

using pmu::Event;

mem::Buffer make_buffer(const MachineSpec& machine, std::size_t size_bytes) {
  const std::size_t pages =
      (size_bytes + machine.page_bytes - 1) / machine.page_bytes;
  std::vector<std::uint32_t> frames(pages);
  std::iota(frames.begin(), frames.end(), 0u);
  return mem::Buffer(std::move(frames), machine.page_bytes, size_bytes);
}

TEST(PmuEvents, NamesRoundTripAndAreUnique) {
  const auto& events = pmu::all_events();
  ASSERT_EQ(events.size(), pmu::kEventCount);
  for (const Event e : events) {
    const char* name = pmu::event_name(e);
    ASSERT_NE(name, nullptr);
    const auto parsed = pmu::parse_event(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, e);
  }
  EXPECT_FALSE(pmu::parse_event("no_such_event").has_value());
}

TEST(PmuFile, SnapshotDeltaAndAddDelta) {
  pmu::PmuFile file;
  file.count(Event::kCycles, 100);
  file.count(Event::kL1Hits, 7);
  const pmu::PmuSnapshot first = file.snapshot();
  file.count(Event::kCycles, 50);
  const pmu::PmuSnapshot delta = file.snapshot().delta_since(first);
  EXPECT_EQ(delta[Event::kCycles], 50u);
  EXPECT_EQ(delta[Event::kL1Hits], 0u);

  pmu::PmuFile replay;
  replay.add_delta(first, 3);
  EXPECT_EQ(replay.value(Event::kCycles), 300u);
  EXPECT_EQ(replay.value(Event::kL1Hits), 21u);
  replay.add_delta(first, 0);  // no-op
  EXPECT_EQ(replay.value(Event::kCycles), 300u);
  replay.reset();
  EXPECT_EQ(replay.value(Event::kCycles), 0u);
}

TEST(PmuHierarchy, PerAccessCountsMatchPassCost) {
  const MachineSpec machine = machines::core_i7_2600();
  mem::Hierarchy hierarchy(machine);
  pmu::PmuFile file;
  hierarchy.attach_pmu(&file);
  const mem::Buffer buffer = make_buffer(machine, 128 * 1024);
  const std::size_t stride = 64;
  const std::size_t count = 128 * 1024 / stride;
  const mem::PassCost cost = hierarchy.stream_pass(buffer, stride, count);

  // L1 hits/misses: every access either hits level 0 or misses it.
  EXPECT_EQ(file.value(Event::kL1Hits), cost.hits_by_level[0]);
  EXPECT_EQ(file.value(Event::kL1Hits) + file.value(Event::kL1Misses),
            cost.accesses);
  // LLC = last cache level (L3 here); its misses are the memory accesses.
  EXPECT_EQ(file.value(Event::kLlcHits), cost.hits_by_level[2]);
  EXPECT_EQ(file.value(Event::kLlcMisses), cost.hits_by_level[3]);
  EXPECT_EQ(file.value(Event::kMemAccesses), cost.hits_by_level[3]);
  EXPECT_EQ(file.value(Event::kStallCycles), cost.stall_cycles);
  // 3-level machine: the middle level reports as L2.
  EXPECT_EQ(file.value(Event::kL2Hits), cost.hits_by_level[1]);
}

TEST(PmuHierarchy, TwoLevelMachineCountsLastLevelAsLlc) {
  const MachineSpec machine = machines::opteron();
  mem::Hierarchy hierarchy(machine);
  pmu::PmuFile file;
  hierarchy.attach_pmu(&file);
  const mem::Buffer buffer = make_buffer(machine, 256 * 1024);
  hierarchy.stream_pass(buffer, 64, 4096);
  EXPECT_EQ(file.value(Event::kL2Hits), 0u);
  EXPECT_EQ(file.value(Event::kL2Misses), 0u);
  EXPECT_GT(file.value(Event::kLlcHits) + file.value(Event::kLlcMisses), 0u);
}

TEST(PmuHierarchy, AccountPassMatchesSimulatedRepetitions) {
  // The nloops extrapolation contract: folding the steady PassCost in
  // `times` times must be counter-identical to simulating those passes
  // with per-access counting attached.
  const MachineSpec machine = machines::core_i7_2600();
  const mem::Buffer buffer = make_buffer(machine, 96 * 1024);
  const std::size_t stride = 64;
  const std::size_t count = 96 * 1024 / stride;
  constexpr std::uint64_t kReps = 5;

  mem::Hierarchy simulated(machine);
  pmu::PmuFile sim_file;
  simulated.attach_pmu(&sim_file);
  simulated.flush();
  for (std::uint64_t i = 0; i <= kReps; ++i) {
    simulated.stream_pass(buffer, stride, count);
  }

  mem::Hierarchy folded(machine);
  pmu::PmuFile fold_file;
  folded.attach_pmu(&fold_file);
  folded.flush();
  folded.stream_pass(buffer, stride, count);  // cold, counted per access
  folded.attach_pmu(nullptr);
  const mem::PassCost steady = folded.stream_pass(buffer, stride, count);
  folded.attach_pmu(&fold_file);
  folded.account_pass(steady, kReps);

  for (const Event e : pmu::all_events()) {
    EXPECT_EQ(sim_file.value(e), fold_file.value(e)) << pmu::event_name(e);
  }
}

TEST(PmuCore, CountsCyclesTicksAndTransitions) {
  const FreqSpec freq{1.0, 3.0};
  cpu::SimCore core(freq, cpu::make_governor(cpu::GovernorKind::kOndemand));
  pmu::PmuFile file;
  core.attach_pmu(&file);
  // A long busy run spans several 10 ms governor windows at 100% busy,
  // so ondemand jumps min -> max: at least one transition.
  const double cycles = 0.2 * 3.0e9;
  core.run(cycles);
  EXPECT_EQ(file.value(Event::kCycles),
            static_cast<std::uint64_t>(std::llround(cycles)));
  EXPECT_GT(file.value(Event::kGovernorTicks), 0u);
  EXPECT_GE(file.value(Event::kFreqTransitions), 1u);

  // Idle-gap ticks count too (the ramp-down is PMU-visible) but add no
  // cycles.
  const std::uint64_t cycles_before = file.value(Event::kCycles);
  core.sync_to(core.now() + 1.0);
  EXPECT_EQ(file.value(Event::kCycles), cycles_before);
  EXPECT_GT(file.value(Event::kGovernorTicks), 20u);
}

TEST(PmuCore, PerformanceGovernorNeverTransitions) {
  const FreqSpec freq{1.6, 3.4};
  cpu::SimCore core(freq, cpu::make_governor(cpu::GovernorKind::kPerformance));
  pmu::PmuFile file;
  core.attach_pmu(&file);
  core.sync_to(5.0);
  core.run(1e9);
  EXPECT_EQ(file.value(Event::kFreqTransitions), 0u);
  EXPECT_EQ(file.value(Event::kGovernorTicks), 0u);
}

TEST(PmuScheduler, PreemptionsFollowTheContentionWindow) {
  os::DaemonSpec daemon;
  daemon.window_fraction = 0.5;
  Rng rng(7);
  const os::Scheduler fifo(os::SchedPolicy::kFifo, daemon, 10.0, rng);
  const double inside = (fifo.window_start_s() + fifo.window_end_s()) / 2.0;
  EXPECT_EQ(fifo.preemptions_at(inside), 2u);
  EXPECT_EQ(fifo.preemptions_at(fifo.window_end_s() + 1.0), 0u);

  Rng rng2(7);
  const os::Scheduler other(os::SchedPolicy::kOther, daemon, 10.0, rng2);
  const double inside2 = (other.window_start_s() + other.window_end_s()) / 2.0;
  EXPECT_EQ(other.preemptions_at(inside2), 1u);

  EXPECT_EQ(os::Scheduler::dedicated().preemptions_at(1.0), 0u);
}

TEST(PmuContention, WaitsAppearOnlyWhenMemorySaturates) {
  const MachineSpec machine = machines::core_i7_2600();
  mem::ParallelConfig config;
  config.kernel = {16, 8};
  config.size_bytes = 32 * 1024 * 1024;  // far beyond LLC: memory-bound
  config.stride_elems = 4;               // one access per 64 B line
  config.nloops = 4;

  config.threads = machine.cores;
  pmu::Pmu saturated(static_cast<std::size_t>(machine.cores));
  const auto result = mem::measure_parallel(machine, config, &saturated);
  ASSERT_GT(result.memory_pressure, 1.0);
  EXPECT_GT(saturated.core(0).value(Event::kContentionWaits), 0u);
  EXPECT_GT(saturated.core(0).value(Event::kCycles), 0u);
  EXPECT_GT(saturated.core(0).value(Event::kMemAccesses), 0u);
  // Symmetric threads: every participating core sees identical counts.
  for (const Event e : pmu::all_events()) {
    EXPECT_EQ(saturated.core(0).value(e),
              saturated.core(machine.cores - 1).value(e))
        << pmu::event_name(e);
  }

  mem::ParallelConfig solo = config;
  solo.threads = 1;
  solo.size_bytes = 16 * 1024;  // L1-resident: no memory pressure at all
  pmu::Pmu quiet(1);
  const auto solo_result = mem::measure_parallel(machine, solo, &quiet);
  ASSERT_LT(solo_result.memory_pressure, 1.0);
  EXPECT_EQ(quiet.core(0).value(Event::kContentionWaits), 0u);
  // The aggregate sums per-core files.
  EXPECT_EQ(quiet.aggregate()[Event::kCycles],
            quiet.core(0).value(Event::kCycles));
}

TEST(PmuMemSystem, TimingIsInvariantUnderCounting) {
  // Turning the PMU on must not change what the simulated benchmark
  // reports: identical seeds, identical timing metrics.
  mem::MemSystemConfig off;
  off.machine = machines::core_i7_2600();
  mem::MemSystemConfig on = off;
  on.enable_pmu = true;
  mem::MemSystem system_off(off);
  mem::MemSystem system_on(on);

  const mem::MeasurementRequest request{64 * 1024, 4, {8, 4}, 50};
  Rng rng_off(11);
  Rng rng_on(11);
  const auto a = system_off.measure(request, 0.5, rng_off);
  const auto b = system_on.measure(request, 0.5, rng_on);
  EXPECT_EQ(a.bandwidth_mbps, b.bandwidth_mbps);
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
  EXPECT_EQ(a.avg_freq_ghz, b.avg_freq_ghz);
  EXPECT_EQ(a.l1_hit_rate, b.l1_hit_rate);
  // And only the counting system reports counters.
  EXPECT_EQ(a.pmu[Event::kCycles], 0u);
  EXPECT_GT(b.pmu[Event::kCycles], 0u);
}

TEST(PmuMemSystem, MeasurementDeltasAreSelfConsistent) {
  mem::MemSystemConfig config;
  config.machine = machines::core_i7_2600();
  config.enable_noise = false;
  config.enable_pmu = true;
  mem::MemSystem system(config);
  ASSERT_NE(system.pmu(), nullptr);

  const mem::MeasurementRequest request{32 * 1024, 1, {4, 1}, 10};
  Rng rng(3);
  const auto first = system.measure(request, 0.0, rng);
  const auto second = system.measure(request, 1.0, rng);

  const std::size_t count = 32 * 1024 / 4;
  const std::uint64_t accesses = static_cast<std::uint64_t>(count) * 10;
  EXPECT_EQ(first.pmu[Event::kL1Hits] + first.pmu[Event::kL1Misses], accesses);
  // Identical requests against a flushed hierarchy: identical deltas
  // (cache/stall events are a pure function of the run).
  EXPECT_EQ(first.pmu[Event::kL1Hits], second.pmu[Event::kL1Hits]);
  EXPECT_EQ(first.pmu[Event::kStallCycles], second.pmu[Event::kStallCycles]);
  // The file accumulates both measurements.
  EXPECT_EQ(system.pmu()->value(Event::kL1Hits),
            first.pmu[Event::kL1Hits] + second.pmu[Event::kL1Hits]);
  EXPECT_GT(first.pmu[Event::kInstructions], 0u);
}

TEST(PmuMemSystem, DaemonWindowCountsContextSwitches) {
  mem::MemSystemConfig config;
  config.machine = machines::arm_snowball();
  config.enable_noise = false;
  config.enable_pmu = true;
  config.daemon_present = true;
  config.policy = os::SchedPolicy::kFifo;
  config.daemon.window_fraction = 1.0;  // whole horizon contended
  mem::MemSystem system(config);

  const mem::MeasurementRequest request{16 * 1024, 1, {4, 1}, 5};
  Rng rng(5);
  const auto out = system.measure(request, 1.0, rng);
  EXPECT_EQ(out.pmu[Event::kContextSwitches], 2u);
  EXPECT_GT(out.slowdown, 1.0);
}

TEST(PmuObsBridge, MirrorsCountsIntoTheMetricsRegistry) {
  if (obs::metrics::kill_switch()) GTEST_SKIP() << "CAL_METRICS=off";
  obs::metrics::arm();
  obs::metrics::reset();

  mem::MemSystemConfig config;
  config.machine = machines::core_i7_2600();
  config.enable_noise = false;
  config.enable_pmu = true;
  mem::MemSystem system(config);
  Rng rng(9);
  system.measure({16 * 1024, 1, {4, 1}, 3}, 0.0, rng);

  // Registry totals equal the file totals: every seam publishes through
  // the bridge.
  EXPECT_EQ(obs::metrics::counter("sim.pmu.cycles").value(),
            system.pmu()->value(Event::kCycles));
  EXPECT_EQ(obs::metrics::counter("sim.pmu.l1_hits").value(),
            system.pmu()->value(Event::kL1Hits));
  obs::metrics::reset();
  obs::metrics::disarm();
}

TEST(PmuObsBridge, PublishesOnceEveryMeasurementAcrossSeveralMeasurements) {
  if (obs::metrics::kill_switch()) GTEST_SKIP() << "CAL_METRICS=off";
  obs::metrics::arm();
  obs::metrics::reset();

  // A DVFS governor and a daemon window make cycles, governor ticks,
  // frequency transitions and context switches move too.
  mem::MemSystemConfig config;
  config.machine = machines::core_i7_2600();
  config.governor = cpu::GovernorKind::kOndemand;
  config.daemon_present = true;
  config.daemon.window_fraction = 0.5;
  config.enable_pmu = true;
  mem::MemSystem system(config);
  Rng rng(11);
  double now = 0.0;
  const mem::MeasurementRequest requests[] = {
      {16 * 1024, 1, {4, 1}, 3},
      {512 * 1024, 16, {8, 8}, 2},
      {64 * 1024, 2, {8, 1}, 5},
      {4 * 1024, 1, {4, 8}, 1},
  };
  pmu::PmuSnapshot summed;
  for (const auto& request : requests) {
    const auto out = system.measure(request, now, rng);
    now += out.elapsed_s + 0.5;
    for (std::size_t i = 0; i < pmu::kEventCount; ++i) {
      summed.values[i] += out.pmu.values[i];
    }
    // Published as each measurement ends, not batched past it.
    EXPECT_EQ(obs::metrics::counter("sim.pmu.l1_hits").value(),
              system.pmu()->value(Event::kL1Hits));
  }

  // Every event's registry total equals the file's total, which equals
  // the sum of the per-measurement deltas.
  for (const Event e : pmu::all_events()) {
    const std::string name = std::string("sim.pmu.") + pmu::event_name(e);
    EXPECT_EQ(obs::metrics::counter(name).value(), system.pmu()->value(e))
        << name;
    EXPECT_EQ(summed[e], system.pmu()->value(e)) << name;
  }
  obs::metrics::reset();
  obs::metrics::disarm();
}

TEST(PmuObsBridge, ParallelMeasurementPublishesEveryCoreFile) {
  if (obs::metrics::kill_switch()) GTEST_SKIP() << "CAL_METRICS=off";
  obs::metrics::arm();
  obs::metrics::reset();

  const MachineSpec machine = machines::core_i7_2600();
  pmu::Pmu pmu(static_cast<std::size_t>(machine.cores));
  mem::ParallelConfig config;
  config.size_bytes = 1024 * 1024;
  config.threads = 3;
  mem::measure_parallel(machine, config, &pmu);
  mem::measure_parallel(machine, config, &pmu);

  const pmu::PmuSnapshot total = pmu.aggregate();
  EXPECT_GT(total[Event::kCycles], 0u);
  for (const Event e : pmu::all_events()) {
    const std::string name = std::string("sim.pmu.") + pmu::event_name(e);
    EXPECT_EQ(obs::metrics::counter(name).value(), total[e]) << name;
  }
  obs::metrics::reset();
  obs::metrics::disarm();
}

}  // namespace
}  // namespace cal::sim
