#pragma once
// MemSystem: the full simulated machine a memory benchmark runs against.
//
// Composes the physically-indexed cache hierarchy, the page allocator,
// the DVFS-governed core clock, the OS scheduler, and the kernel issue
// model into a single measure() call: "run the Fig. 6 kernel with this
// buffer size / stride / element type / unrolling / nloops at simulated
// time t, and tell me the bandwidth the benchmark would have reported."
//
// Per-experiment randomness (the physical page pool permutation, the
// daemon's contention window, the governor tick phase) is drawn from
// `system_seed` -- one seed per simulated process/boot.  Re-running a
// campaign with a different system_seed reproduces the paper's
// "four consecutive experiments, four different cliffs" (Fig. 12);
// re-running with the same seed reproduces it exactly.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "sim/cpu/core.hpp"
#include "sim/cpu/governor.hpp"
#include "sim/machine.hpp"
#include "sim/mem/hierarchy.hpp"
#include "sim/mem/kernel_model.hpp"
#include "sim/mem/page_allocator.hpp"
#include "sim/os/scheduler.hpp"
#include "sim/pmu/pmu.hpp"

namespace cal::sim::mem {

/// Buffer allocation technique (Section IV-4).
enum class AllocTechnique {
  kMallocPerBuffer,       ///< malloc/free per measurement: pages reused
  kBigBlockRandomOffset,  ///< one big block, random start offset per rep
};

const char* to_string(AllocTechnique technique);

struct MemSystemConfig {
  MachineSpec machine;
  cpu::GovernorKind governor = cpu::GovernorKind::kPerformance;
  os::SchedPolicy policy = os::SchedPolicy::kOther;
  bool daemon_present = false;  ///< background daemon exists on the core
  os::DaemonSpec daemon;
  AllocTechnique alloc = AllocTechnique::kMallocPerBuffer;
  /// Page grant policy; defaults to the machine's behaviour
  /// (kRandomPool when machine.random_page_allocation, else kSequential).
  std::optional<PagePolicy> page_policy;
  std::size_t pool_pages = 2048;           ///< physical pool (8 MB of 4K)
  std::size_t big_block_bytes = 2 * 1024 * 1024;
  double horizon_s = 60.0;   ///< campaign duration hint (daemon placement)
  std::uint64_t system_seed = 1;  ///< per-process/boot randomness
  bool enable_noise = true;  ///< machine's timing-noise profile
  /// Simulated PMU counter file (sim/pmu): when on, the hierarchy, core,
  /// scheduler, and kernel model count events into a per-system PmuFile
  /// and measure() reports the per-measurement delta.  Off by default:
  /// the disabled seams cost one null test each.
  bool enable_pmu = false;
};

struct MeasurementRequest {
  std::size_t size_bytes = 1024;
  std::size_t stride_elems = 1;
  KernelConfig kernel;
  std::size_t nloops = 1;
};

struct MeasurementOutput {
  double bandwidth_mbps = 0.0;  ///< what the benchmark reports
  double elapsed_s = 0.0;       ///< simulated duration (advances the clock)
  double avg_freq_ghz = 0.0;    ///< diagnostic: cycles / busy time
  double l1_hit_rate = 0.0;     ///< diagnostic: steady-state pass
  double slowdown = 1.0;        ///< diagnostic: scheduler contention factor
  /// PMU event deltas for this measurement alone (all zero unless the
  /// system was built with enable_pmu).  A pure function of the run,
  /// bit-identical at any engine worker count.
  pmu::PmuSnapshot pmu{};
};

class MemSystem {
 public:
  explicit MemSystem(MemSystemConfig config);

  /// Measures one kernel execution starting at engine time `now_s`.
  /// `rng` provides the measurement-local randomness (noise, offsets).
  MeasurementOutput measure(const MeasurementRequest& request, double now_s,
                            Rng& rng);

  const MemSystemConfig& config() const noexcept { return config_; }
  const os::Scheduler& scheduler() const noexcept { return scheduler_; }
  /// The system's PMU counter file; null unless config.enable_pmu.
  const pmu::PmuFile* pmu() const noexcept { return pmu_.get(); }

 private:
  MemSystemConfig config_;
  std::unique_ptr<pmu::PmuFile> pmu_;
  Rng system_rng_;
  PageAllocator allocator_;
  Hierarchy hierarchy_;
  cpu::SimCore core_;
  os::Scheduler scheduler_;
  std::vector<std::uint32_t> big_block_frames_;
  /// Reused across measure() calls so the per-measurement cache cost
  /// allocates nothing after the first call.
  Hierarchy::RunCost cost_scratch_;
};

}  // namespace cal::sim::mem
