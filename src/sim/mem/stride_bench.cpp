#include "sim/mem/stride_bench.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace cal::sim::mem {
namespace {

PagePolicy default_policy(const MachineSpec& machine) {
  return machine.random_page_allocation ? PagePolicy::kRandomPool
                                        : PagePolicy::kSequential;
}

std::size_t l1_color_count(const MachineSpec& machine) {
  // Number of distinct page colors in L1: bytes of one L1 way divided by
  // the page size (at least 1).
  const auto& l1 = machine.l1();
  const std::size_t way_bytes = l1.size_bytes / l1.ways;
  return std::max<std::size_t>(way_bytes / machine.page_bytes, 1);
}

}  // namespace

const char* to_string(AllocTechnique technique) {
  switch (technique) {
    case AllocTechnique::kMallocPerBuffer: return "malloc_per_buffer";
    case AllocTechnique::kBigBlockRandomOffset: return "big_block_offset";
  }
  return "malloc_per_buffer";
}

MemSystem::MemSystem(MemSystemConfig config)
    : config_(std::move(config)),
      pmu_(config_.enable_pmu ? std::make_unique<pmu::PmuFile>() : nullptr),
      system_rng_(config_.system_seed),
      allocator_(config_.pool_pages,
                 config_.page_policy.value_or(default_policy(config_.machine)),
                 system_rng_, l1_color_count(config_.machine)),
      hierarchy_(config_.machine),
      core_(config_.machine.freq, cpu::make_governor(config_.governor),
            /*tick_phase_s=*/system_rng_.uniform(0.0, 0.010)),
      scheduler_(config_.daemon_present
                     ? os::Scheduler(config_.policy, config_.daemon,
                                     config_.horizon_s, system_rng_)
                     : os::Scheduler::dedicated()) {
  if (config_.alloc == AllocTechnique::kBigBlockRandomOffset) {
    const std::size_t pages =
        (config_.big_block_bytes + config_.machine.page_bytes - 1) /
        config_.machine.page_bytes;
    big_block_frames_ = allocator_.allocate(pages);
  }
  if (pmu_) {
    hierarchy_.attach_pmu(pmu_.get());
    core_.attach_pmu(pmu_.get());
  }
}

MeasurementOutput MemSystem::measure(const MeasurementRequest& request,
                                     double now_s, Rng& rng) {
  const MachineSpec& machine = config_.machine;
  const std::size_t elem = request.kernel.element_bytes;
  const std::size_t stride_bytes = request.stride_elems * elem;
  if (stride_bytes == 0 || request.size_bytes < stride_bytes) {
    throw std::invalid_argument("MemSystem: buffer smaller than one stride");
  }
  if (request.nloops == 0) {
    throw std::invalid_argument("MemSystem: nloops must be >= 1");
  }

  // --- Buffer allocation (the P7 mechanism) ----------------------------
  std::vector<std::uint32_t> owned_frames;
  const Buffer buffer = [&]() -> Buffer {
    CAL_SPAN("sim.alloc");
    switch (config_.alloc) {
      case AllocTechnique::kMallocPerBuffer: {
        const std::size_t pages =
            (request.size_bytes + machine.page_bytes - 1) / machine.page_bytes;
        owned_frames = allocator_.allocate(pages);
        return Buffer(owned_frames, machine.page_bytes, request.size_bytes);
      }
      case AllocTechnique::kBigBlockRandomOffset: {
        const std::size_t block =
            big_block_frames_.size() * machine.page_bytes;
        if (request.size_bytes > block) {
          throw std::invalid_argument("MemSystem: buffer exceeds big block");
        }
        const std::size_t max_offset = block - request.size_bytes;
        std::size_t offset = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(max_offset)));
        offset -= offset % elem;  // element alignment
        return Buffer(big_block_frames_, machine.page_bytes,
                      request.size_bytes, offset);
      }
    }
    throw std::logic_error("MemSystem: unknown allocation technique");
  }();

  // --- Cache cost: cold pass + nloops - 1 later passes -----------------
  const std::size_t count = request.size_bytes / stride_bytes;
  pmu::PmuSnapshot pmu_begin;
  if (pmu_) pmu_begin = pmu_->snapshot();
  {
    CAL_SPAN("sim.cache_cost");
    hierarchy_.run_cost(buffer, stride_bytes, count, request.nloops,
                        cost_scratch_);
    // Counter-exact accounting of every pass.  No-op with the PMU off.
    hierarchy_.account_run(cost_scratch_);
  }
  const auto& cost = cost_scratch_;

  const double issue_cpe =
      issue_cycles_per_access(machine.issue, request.kernel);
  const double issue_cycles = issue_cpe * static_cast<double>(count);
  double total_cycles =
      issue_cycles + static_cast<double>(cost.cold.stall_cycles);
  for (const Hierarchy::RunCost::Repeat& later : cost.later) {
    const double pass_cycles =
        issue_cycles + static_cast<double>(later.cost.stall_cycles);
    total_cycles += static_cast<double>(later.passes) * pass_cycles;
  }

  // --- OS scheduler contention -----------------------------------------
  const double slowdown = scheduler_.slowdown_at(now_s);
  total_cycles *= slowdown;
  if (pmu_) {
    pmu_->count(pmu::Event::kContextSwitches,
                scheduler_.preemptions_at(now_s));
    const double ipa =
        issue_instructions_per_access(machine.issue, request.kernel);
    pmu_->count(pmu::Event::kInstructions,
                static_cast<std::uint64_t>(std::llround(
                    ipa * static_cast<double>(count) *
                    static_cast<double>(request.nloops))));
  }

  // --- Clock integration under the DVFS governor -----------------------
  double busy_s = 0.0;
  {
    CAL_SPAN("sim.clock");
    core_.sync_to(now_s);
    busy_s = core_.run(total_cycles);
  }
  double elapsed = busy_s;

  // --- Measurement noise ------------------------------------------------
  if (config_.enable_noise) {
    elapsed *= rng.lognormal_factor(machine.noise.sigma);
    if (machine.noise.spike_prob > 0.0 &&
        rng.bernoulli(machine.noise.spike_prob)) {
      elapsed *= rng.uniform(1.0, machine.noise.spike_max_factor);
    }
  }

  if (config_.alloc == AllocTechnique::kMallocPerBuffer) {
    allocator_.release(owned_frames);
  }

  MeasurementOutput out;
  const double bytes = static_cast<double>(count) *
                       static_cast<double>(elem) *
                       static_cast<double>(request.nloops);
  out.elapsed_s = elapsed;
  out.bandwidth_mbps = bytes / elapsed / 1e6;
  out.avg_freq_ghz = busy_s > 0.0 ? total_cycles / busy_s / 1e9 : 0.0;
  const auto& steady_hits = cost.steady().hits_by_level;
  const double total_acc = static_cast<double>(cost.steady().accesses);
  out.l1_hit_rate =
      total_acc > 0.0 ? static_cast<double>(steady_hits[0]) / total_acc : 0.0;
  out.slowdown = slowdown;
  if (pmu_) {
    out.pmu = pmu_->snapshot().delta_since(pmu_begin);
    pmu::publish(out.pmu);
  }
  return out;
}

}  // namespace cal::sim::mem
