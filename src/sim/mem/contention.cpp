#include "sim/mem/contention.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/mem/hierarchy.hpp"
#include "sim/mem/page_allocator.hpp"

namespace cal::sim::mem {

ParallelResult measure_parallel(const MachineSpec& machine,
                                const ParallelConfig& config,
                                pmu::Pmu* pmu) {
  const std::size_t elem = config.kernel.element_bytes;
  const std::size_t stride_bytes = config.stride_elems * elem;
  if (stride_bytes == 0 || config.size_bytes < stride_bytes) {
    throw std::invalid_argument("measure_parallel: buffer < one stride");
  }
  if (config.nloops == 0) {
    throw std::invalid_argument("measure_parallel: nloops must be >= 1");
  }
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>(config.threads,
                               static_cast<std::size_t>(machine.cores)));

  // Per-thread stream on private contiguous pages (each thread has its
  // own buffer; they contend only on the shared memory interface).
  Hierarchy hierarchy(machine);
  const std::size_t pages =
      (config.size_bytes + machine.page_bytes - 1) / machine.page_bytes;
  std::vector<std::uint32_t> frames(pages);
  for (std::size_t i = 0; i < pages; ++i) {
    frames[i] = static_cast<std::uint32_t>(i);
  }
  const Buffer buffer(std::move(frames), machine.page_bytes,
                      config.size_bytes);
  const std::size_t count = config.size_bytes / stride_bytes;
  Hierarchy::RunCost cost;
  hierarchy.run_cost(buffer, stride_bytes, count, config.nloops, cost);

  const double issue_cycles =
      issue_cycles_per_access(machine.issue, config.kernel) *
      static_cast<double>(count);
  const double capacity = machine.memory_lines_per_cycle;
  const std::size_t memory_level = hierarchy.level_count();

  // One pass under contention: its uncontended cycles, and the memory
  // interface's floor -- it serves at most `capacity` lines per cycle
  // across all threads, so a pass can never complete faster than its
  // share of line fetches allows.  This caps the aggregate exactly at
  // the roofline.
  struct Pass {
    double solo = 0.0;
    double floor = 0.0;
    double fetches = 0.0;
    double cycles() const { return std::max(solo, floor); }
    double waits() const { return floor > solo ? fetches : 0.0; }
  };
  const auto contended = [&](double solo, const PassCost& pass) {
    Pass out;
    out.solo = solo;
    out.fetches = static_cast<double>(pass.hits_by_level[memory_level]);
    out.floor = capacity > 0.0
                    ? static_cast<double>(threads) * out.fetches / capacity
                    : 0.0;
    return out;
  };

  // A later pass's solo cycles sum its stalls per level, private levels
  // first, then memory.
  const auto later_pass = [&](const PassCost& pass) {
    double private_stall = 0.0;
    double memory_stall = 0.0;
    for (std::size_t level = 0; level <= memory_level; ++level) {
      const double stall = hierarchy.stall_for_level(level) *
                           static_cast<double>(pass.hits_by_level[level]);
      (level == memory_level ? memory_stall : private_stall) += stall;
    }
    return contended(issue_cycles + private_stall + memory_stall, pass);
  };

  const Pass cold = contended(
      issue_cycles + static_cast<double>(cost.cold.stall_cycles), cost.cold);
  const Pass steady = later_pass(cost.steady());
  double total_cycles = cold.cycles();
  double waits = cold.waits();
  for (const Hierarchy::RunCost::Repeat& later : cost.later) {
    const Pass pass = later_pass(later.cost);
    total_cycles += static_cast<double>(later.passes) * pass.cycles();
    waits += static_cast<double>(later.passes) * pass.waits();
  }
  const double demand_per_thread =
      steady.solo > 0.0 ? steady.fetches / steady.solo : 0.0;
  const double pressure =
      capacity > 0.0
          ? demand_per_thread * static_cast<double>(threads) / capacity
          : 0.0;
  const double contention =
      steady.solo > 0.0 ? steady.cycles() / steady.solo : 1.0;

  const double seconds = total_cycles / (machine.freq.max_ghz * 1e9);
  const double bytes = static_cast<double>(count) *
                       static_cast<double>(elem) *
                       static_cast<double>(config.nloops);

  if (pmu != nullptr) {
    // Symmetric threads: fold the (identical) per-thread run into each
    // participating core's counter file.  Cache events come from the
    // simulated passes via the hierarchy's own accounting; contention
    // waits are the line fetches that queued when the capacity floor
    // bound a pass.
    const double instructions =
        issue_instructions_per_access(machine.issue, config.kernel) *
        static_cast<double>(count) * static_cast<double>(config.nloops);
    const std::size_t cores =
        std::min<std::size_t>(threads, pmu->cores());
    for (std::size_t t = 0; t < cores; ++t) {
      pmu::PmuFile& file = pmu->core(t);
      const pmu::PmuSnapshot before = file.snapshot();
      hierarchy.attach_pmu(&file);
      hierarchy.account_run(cost);
      file.count(pmu::Event::kCycles,
                 static_cast<std::uint64_t>(std::llround(total_cycles)));
      file.count(pmu::Event::kInstructions,
                 static_cast<std::uint64_t>(std::llround(instructions)));
      file.count(pmu::Event::kContentionWaits,
                 static_cast<std::uint64_t>(std::llround(waits)));
      pmu::publish(file.snapshot().delta_since(before));
    }
    hierarchy.attach_pmu(nullptr);
  }

  ParallelResult result;
  result.per_thread_mbps = bytes / seconds / 1e6;
  result.aggregate_mbps =
      result.per_thread_mbps * static_cast<double>(threads);
  result.memory_pressure = pressure;
  result.contention_factor = contention;
  return result;
}

std::size_t saturation_threads(const MachineSpec& machine,
                               ParallelConfig config) {
  double previous = 0.0;
  for (std::size_t k = 1; k <= static_cast<std::size_t>(machine.cores);
       ++k) {
    config.threads = k;
    const double aggregate = measure_parallel(machine, config).aggregate_mbps;
    if (k > 1 && aggregate < previous * 1.05) return k - 1;
    previous = aggregate;
  }
  return static_cast<std::size_t>(machine.cores);
}

}  // namespace cal::sim::mem
