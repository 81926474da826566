#pragma once
// Multi-level memory hierarchy simulation.
//
// Drives the per-level Cache models with an access stream and charges the
// per-level miss stalls from the machine spec.  stream_pass() simulates
// one MultiMAPS-style strided pass over a buffer access by access.
// steady_state_cost() returns pass 1 and pass 2 of a run that starts from
// empty caches -- in closed form, without touching the tag arrays, when
// the stream visits every physical line in one contiguous run per pass.
//
// run_cost() prices all nloops passes.  On a nested geometry (one line
// size; set counts that divide each other, as on all four paper
// machines) every pass after the first costs what pass 2 costs, so a run
// is pass1 + (nloops - 1) * pass2.  Where set indices cross -- an L2 no
// larger than L1 gathering several L1 sets, say -- pass 3 can differ from
// pass 2, so run_cost simulates passes until the replacement state
// repeats and extrapolates the cycle exactly.

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
  std::size_t access(std::uint64_t paddr);

  /// Stall cycles charged for a hit at `level`.
  double stall_for_level(std::size_t level) const noexcept;

  /// Simulates one pass: accesses buffer[0], buffer[stride_bytes], ...
  /// for `count` accesses (the MultiMAPS loop reads size/stride elements),
  /// offsets wrapping modulo buffer.size().  Exactly equivalent to
  /// calling access() on every translated address, but cheaper: the page
  /// table is walked once per page, and a run of accesses that stays in
  /// the L1 line just touched is counted as one step of k L1 hits.
  PassCost stream_pass(const Buffer& buffer, std::size_t stride_bytes,
                       std::size_t count);

  /// Allocation-free variant for hot loops: reuses `out.hits_by_level`
  /// capacity, so a caller that keeps the PassCost across measurements
  /// pays the vector allocation once instead of once per pass.
  void stream_pass(const Buffer& buffer, std::size_t stride_bytes,
                   std::size_t count, PassCost& out);

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

  /// Every pass of an nloops run from empty caches.
  struct RunCost {
    PassCost cold;  ///< pass 1
    struct Repeat {
      PassCost cost;
      std::uint64_t passes = 0;  ///< how many of passes 2..nloops cost it
    };
    /// The distinct costs of passes 2, 3, ... in order of first
    /// occurrence.  The front is pass 2 (kept as a diagnostic even when
    /// nloops == 1, with passes == 0); the counts sum to nloops - 1.
    std::vector<Repeat> later;

    const PassCost& steady() const { return later.front().cost; }
  };

  /// Prices an nloops run.  Nested geometries take steady_state_cost's
  /// two passes (pass 2 is already the fixed point there).  Others flush
  /// and simulate passes 2, 3, ... until the state after a pass equals
  /// the state after an earlier pass, then count the repeating cycle out
  /// to nloops; comparing against up to kMaxTrackedStates earlier states,
  /// a run whose state has not repeated by then simulates every
  /// remaining pass (still exact, only slower).  Like steady_state_cost
  /// it counts nothing into the attached PMU (fold the result in with
  /// account_run), and leaves the caches unspecified.
  void run_cost(const Buffer& buffer, std::size_t stride_bytes,
                std::size_t count, std::size_t nloops, RunCost& out);

  /// account_pass over a whole run: the cold pass once and each later
  /// cost as many times as passes cost it.
  void account_run(const RunCost& cost) noexcept;

  /// Whether the geometry nests (see the header comment).
  bool nested() const noexcept { return nested_; }

  static constexpr std::size_t kMaxLevels = 8;
  static constexpr std::size_t kMaxTrackedStates = 16;

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
  /// PassCost, so a pass that repeats is counted exactly without being
  /// simulated again (account_run applies it to a whole run).  No-op when
  /// detached or times == 0.
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
                        std::size_t count, PassCost& cold, PassCost& steady);
  /// Pass 1 and pass 2 from empty caches (steady_state_cost's work).
  void two_pass(const Buffer& buffer, std::size_t stride_bytes,
                std::size_t count, PassCost& cold, PassCost& steady);
  void append_state(std::vector<std::uint64_t>& out) const;

  std::vector<Cache> caches_;
  std::vector<double> stall_;  ///< stall per level; last entry = memory
  bool nested_ = false;
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
