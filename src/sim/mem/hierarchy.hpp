#pragma once
// Multi-level memory hierarchy simulation.
//
// Drives the per-level Cache models with an access stream and charges the
// per-level miss stalls from the machine spec.  stream_pass() simulates
// one MultiMAPS-style strided pass over a buffer access by access.  A
// measurement with nloops repetitions is charged
//     pass1 + (nloops - 1) * pass2
// which is exact when every pass after the first costs the same.  That
// holds on the paper's machines (tests/sim_hierarchy_test asserts pass 2
// == pass 3 on a small one), but not on every geometry: with an L2 no
// larger than L1 whose sets cross L1's, pass 3 can differ from pass 2.
// steady_state_cost() returns pass1 and pass2 for a run that starts from
// empty caches -- in closed form, without touching the tag arrays, when
// the stream visits every physical line in one contiguous run per pass.

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"
#include "sim/mem/address_space.hpp"
#include "sim/mem/cache.hpp"

namespace cal::sim::mem {

/// Result of simulating one pass.
struct PassCost {
  std::uint64_t accesses = 0;
  std::uint64_t stall_cycles = 0;           ///< sum of per-miss stalls
  std::vector<std::uint64_t> hits_by_level; ///< caches... then memory
};

class Hierarchy {
 public:
  explicit Hierarchy(const MachineSpec& machine);

  /// Accesses one physical address; returns the level index where it hit
  /// (0 = L1, caches().size() = main memory).
  std::size_t access(std::uint64_t paddr) noexcept;

  /// Stall cycles charged for a hit at `level`.
  double stall_for_level(std::size_t level) const noexcept;

  /// Simulates one pass: accesses buffer[0], buffer[stride_bytes], ...
  /// for `count` accesses (the MultiMAPS loop reads size/stride elements),
  /// offsets wrapping modulo buffer.size().  Exactly equivalent to
  /// calling access() on every translated address, but cheaper: the page
  /// table is walked once per page, and a run of accesses that stays in
  /// the L1 line just touched is counted as one step of k L1 hits.
  PassCost stream_pass(const Buffer& buffer, std::size_t stride_bytes,
                       std::size_t count) noexcept;

  /// Allocation-free variant for hot loops: reuses `out.hits_by_level`
  /// capacity, so a caller that keeps the PassCost across measurements
  /// pays the vector allocation once instead of once per pass.
  void stream_pass(const Buffer& buffer, std::size_t stride_bytes,
                   std::size_t count, PassCost& out) noexcept;

  /// Cold + steady-state pass costs for the same stream.
  struct SteadyCost {
    PassCost cold;
    PassCost steady;
  };

  /// The first two passes of a run that starts from empty caches: a pure
  /// function of the machine and the inputs.  It counts nothing into the
  /// attached PMU (fold the result in with account_pass), and the cache
  /// contents and per-level hits()/misses() afterwards are unspecified.
  ///
  /// When every level has the same line size, the line size divides the
  /// page, the buffer's pages have distinct frames and the pass does not
  /// wrap ((count - 1) * stride < size), every physical line is touched
  /// in one contiguous run per pass, in the same order both passes.  The
  /// cold pass then misses every level once per line, and in the steady
  /// pass a line hits level k iff fewer than ways_k other lines of its
  /// level-k set were seen there since its cold touch: the lines after it
  /// in the cold pass plus the lines before it that reached level k in the
  /// steady pass -- its LRU stack distance (Mattson et al., 1970).  Two
  /// counting sweeps over the lines give both passes exactly.  Other
  /// inputs flush and simulate the two passes.
  SteadyCost steady_state_cost(const Buffer& buffer, std::size_t stride_bytes,
                               std::size_t count);
  void steady_state_cost(const Buffer& buffer, std::size_t stride_bytes,
                         std::size_t count, SteadyCost& out);

  void flush() noexcept;

  /// Attaches a simulated PMU file (null detaches).  Cache levels report
  /// per-access hit/miss events (level 0 as L1, the last level as LLC,
  /// intermediate levels as L2 -- so on two-level machines the L2 counts
  /// as the LLC and the kL2* events stay zero); the hierarchy itself
  /// reports memory accesses and stall cycles per simulated pass.
  void attach_pmu(pmu::PmuFile* file) noexcept;

  /// Folds `times` repetitions of an already-simulated pass into the
  /// attached PMU file without re-simulating it: per-level hits/misses,
  /// memory accesses, and stall cycles are all derivable from the
  /// PassCost.  This is the counter-exact nloops extrapolation (the
  /// steady pass costs the same every repetition).  No-op when detached
  /// or times == 0.
  void account_pass(const PassCost& cost, std::uint64_t times) noexcept;

  std::size_t level_count() const noexcept { return caches_.size(); }
  const Cache& level(std::size_t i) const { return caches_.at(i); }

 private:
  /// Event pair (hit, miss) cache level `i` reports as.
  std::pair<pmu::Event, pmu::Event> pmu_events_for_level(
      std::size_t i) const noexcept;

  /// Whether steady_state_cost's closed form holds for this stream.
  bool closed_form_applies(const Buffer& buffer, std::size_t stride_bytes,
                           std::size_t count);
  void closed_form_cost(const Buffer& buffer, std::size_t stride_bytes,
                        std::size_t count, SteadyCost& out);

  std::vector<Cache> caches_;
  std::vector<double> stall_;  ///< stall per level; last entry = memory
  pmu::PmuFile* pmu_ = nullptr;
  /// Per-level set counters of the closed form, level k's sets starting
  /// at set_base_[k]: `rem` = lines of the set not yet visited in the
  /// current sweep, `reached` = lines of the set that reached level k in
  /// the steady pass so far.  Reused across calls.
  struct SetCounts {
    std::uint32_t rem = 0;
    std::uint32_t reached = 0;
  };
  std::vector<SetCounts> set_counts_;
  std::vector<std::size_t> set_base_;
  std::vector<std::uint64_t> frame_scratch_;  ///< frame-distinctness check
};

}  // namespace cal::sim::mem
