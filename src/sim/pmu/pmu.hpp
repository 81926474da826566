#pragma once
// Simulated per-core performance-monitoring-unit (PMU) counter files.
//
// The paper's central pitfall is trusting an opaque timing number with no
// independent signal to refute it; hardware event counters are that
// signal (CounterPoint-style: counters used to refute or refine model
// assumptions).  This module gives the *simulated* machine the same
// facility: a perf_event-like per-core file of named event counters
// (cycles, retired instructions, per-level cache hits/misses, memory
// accesses, stall cycles, DVFS transitions, context switches,
// contention waits) incremented at the existing model seams --
// mem/cache + mem/hierarchy (hit/miss/level accounting), cpu/core +
// cpu/governor (cycles, governor ticks, frequency transitions),
// os/scheduler (context switches), mem/contention (wait events).
//
// Determinism contract: every counter value is a pure function of the
// simulated run (the seams never read wall clocks or shared state), so
// per-run counter deltas emitted as campaign columns are bit-identical
// at any engine worker count and any CAL_SIMD level.
//
// Disabled-cost discipline (mirrors core::fault / obs::metrics): a model
// component holds a `PmuFile*` that is null when counting is off, so
// the disabled hot path is one predictable null test per seam -- no
// atomic, no lock, no allocation.  PmuFile itself is plain (non-atomic)
// u64s: each simulator replica is single-threaded by the engine's
// replica-per-worker contract.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace cal::sim::pmu {

/// The simulated event set.  L1 is cache level 0 and LLC the last cache
/// level; kL2* is only populated on machines with >= 3 cache levels
/// (on two-level machines the L2 *is* the LLC and counts there).
enum class Event : std::uint8_t {
  kCycles = 0,        ///< core cycles consumed (includes scheduler slowdown)
  kInstructions,      ///< retired instructions (kernel issue model)
  kL1Hits,
  kL1Misses,
  kL2Hits,            ///< mid-level cache; zero on two-level machines
  kL2Misses,
  kLlcHits,           ///< last cache level before memory
  kLlcMisses,
  kMemAccesses,       ///< accesses served by main memory
  kStallCycles,       ///< memory-hierarchy stall cycles
  kFreqTransitions,   ///< DVFS frequency changes (governor decisions)
  kGovernorTicks,     ///< governor evaluation ticks
  kContextSwitches,   ///< involuntary preemptions (daemon contention)
  kContentionWaits,   ///< line fetches queued at a saturated memory bus
};

inline constexpr std::size_t kEventCount = 14;

/// Stable lower_snake_case event name ("cycles", "l1_misses", ...).
const char* event_name(Event e) noexcept;

/// Inverse of event_name(); nullopt for unknown names.
std::optional<Event> parse_event(std::string_view name) noexcept;

/// Every event, in enum order.
const std::array<Event, kEventCount>& all_events() noexcept;

/// Point-in-time copy of one core's counters.
struct PmuSnapshot {
  std::array<std::uint64_t, kEventCount> values{};

  std::uint64_t operator[](Event e) const noexcept {
    return values[static_cast<std::size_t>(e)];
  }

  /// Per-event difference `*this - earlier`; counters are monotonic, so
  /// a later snapshot never underflows an earlier one.
  PmuSnapshot delta_since(const PmuSnapshot& earlier) const noexcept {
    PmuSnapshot d;
    for (std::size_t i = 0; i < kEventCount; ++i) {
      d.values[i] = values[i] - earlier.values[i];
    }
    return d;
  }
};

/// obs::metrics bridge: adds a measurement's counter delta to the
/// process-wide `sim.pmu.<event>` counters so `--metrics` Prometheus
/// output covers the simulated machine.  A file's owner calls it once
/// per measurement (MemSystem::measure, measure_parallel per core), so
/// the per-access seams stay plain adds.  One relaxed load when the
/// registry is disarmed.
void publish(const PmuSnapshot& delta) noexcept;

/// One core's event-counter file.  Monotonic; read via snapshot() and
/// delta_since() like a perf_event group read.
class PmuFile {
 public:
  /// Adds `n` occurrences of `e`.
  void count(Event e, std::uint64_t n = 1) noexcept {
    values_[static_cast<std::size_t>(e)] += n;
  }

  std::uint64_t value(Event e) const noexcept {
    return values_[static_cast<std::size_t>(e)];
  }

  PmuSnapshot snapshot() const noexcept {
    PmuSnapshot s;
    s.values = values_;
    return s;
  }

  /// Folds `times` repetitions of a measured delta into the file.  This
  /// is how the nloops extrapolation stays counter-exact: the steady
  /// pass is simulated once and its delta replayed nloops-1 times.
  void add_delta(const PmuSnapshot& delta, std::uint64_t times) noexcept {
    if (times == 0) return;
    for (std::size_t i = 0; i < kEventCount; ++i) {
      const std::uint64_t n = delta.values[i] * times;
      if (n != 0) count(static_cast<Event>(i), n);
    }
  }

  void reset() noexcept { values_.fill(0); }

 private:
  std::array<std::uint64_t, kEventCount> values_{};
};

/// A machine's worth of per-core counter files.
class Pmu {
 public:
  explicit Pmu(std::size_t cores) : cores_(cores == 0 ? 1 : cores) {}

  PmuFile& core(std::size_t i) { return cores_.at(i); }
  const PmuFile& core(std::size_t i) const { return cores_.at(i); }
  std::size_t cores() const noexcept { return cores_.size(); }

  /// Sum over all cores (a system-wide perf_event read).
  PmuSnapshot aggregate() const noexcept {
    PmuSnapshot s;
    for (const PmuFile& f : cores_) {
      for (std::size_t i = 0; i < kEventCount; ++i) {
        s.values[i] += f.value(static_cast<Event>(i));
      }
    }
    return s;
  }

  void reset() noexcept {
    for (PmuFile& f : cores_) f.reset();
  }

 private:
  std::vector<PmuFile> cores_;
};

}  // namespace cal::sim::pmu
