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
  const auto cost = hierarchy.steady_state_cost(buffer, stride_bytes, count);

  const double issue_cycles =
      issue_cycles_per_access(machine.issue, config.kernel) *
      static_cast<double>(count);

  // Split the steady-state stalls into private-level and memory stalls.
  const std::size_t memory_level = hierarchy.level_count();
  const auto& steady_hits = cost.steady.hits_by_level;
  double private_stall = 0.0;
  double memory_stall = 0.0;
  double memory_fetches = 0.0;
  for (std::size_t level = 0; level <= memory_level; ++level) {
    const double stall = hierarchy.stall_for_level(level) *
                         static_cast<double>(steady_hits[level]);
    if (level == memory_level) {
      memory_stall = stall;
      memory_fetches = static_cast<double>(steady_hits[level]);
    } else {
      private_stall += stall;
    }
  }

  // Uncontended per-pass cycles and the demanded memory-line rate.
  const double solo_cycles = issue_cycles + private_stall + memory_stall;
  const double demand_per_thread =
      solo_cycles > 0.0 ? memory_fetches / solo_cycles : 0.0;
  const double capacity = machine.memory_lines_per_cycle;
  const double pressure =
      capacity > 0.0
          ? demand_per_thread * static_cast<double>(threads) / capacity
          : 0.0;

  // Contended per-pass cycles: the memory interface serves at most
  // `capacity` lines per cycle across all threads, so a pass can never
  // complete faster than its share of line fetches allows.  This caps
  // the aggregate exactly at the roofline.
  const double floor_cycles =
      capacity > 0.0
          ? static_cast<double>(threads) * memory_fetches / capacity
          : 0.0;
  const double steady_cycles = std::max(solo_cycles, floor_cycles);
  const double contention =
      solo_cycles > 0.0 ? steady_cycles / solo_cycles : 1.0;

  const double cold_solo =
      issue_cycles + static_cast<double>(cost.cold.stall_cycles);
  const double cold_fetches =
      static_cast<double>(cost.cold.hits_by_level[memory_level]);
  const double cold_floor =
      capacity > 0.0
          ? static_cast<double>(threads) * cold_fetches / capacity
          : 0.0;
  const double cold_cycles = std::max(cold_solo, cold_floor);
  const double total_cycles =
      cold_cycles + static_cast<double>(config.nloops - 1) * steady_cycles;

  const double seconds = total_cycles / (machine.freq.max_ghz * 1e9);
  const double bytes = static_cast<double>(count) *
                       static_cast<double>(elem) *
                       static_cast<double>(config.nloops);

  if (pmu != nullptr) {
    // Symmetric threads: fold the (identical) per-thread run into each
    // participating core's counter file.  Cache events come from the
    // simulated passes via the hierarchy's own accounting; contention
    // waits are the line fetches that queued when the capacity floor
    // bound the pass.
    const double steady_waits =
        floor_cycles > solo_cycles ? memory_fetches : 0.0;
    const double cold_waits = cold_floor > cold_solo ? cold_fetches : 0.0;
    const double waits =
        cold_waits + static_cast<double>(config.nloops - 1) * steady_waits;
    const double instructions =
        issue_instructions_per_access(machine.issue, config.kernel) *
        static_cast<double>(count) * static_cast<double>(config.nloops);
    const std::size_t cores =
        std::min<std::size_t>(threads, pmu->cores());
    for (std::size_t t = 0; t < cores; ++t) {
      pmu::PmuFile& file = pmu->core(t);
      const pmu::PmuSnapshot before = file.snapshot();
      hierarchy.attach_pmu(&file);
      hierarchy.account_pass(cost.cold, 1);
      hierarchy.account_pass(cost.steady, config.nloops - 1);
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
