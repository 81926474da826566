#pragma once
// Counter-vs-model cross-checks (CounterPoint-style contradiction
// hunting).
//
// The paper's pitfalls all share one failure shape: an opaque timing
// number is trusted because nothing independent can refute it.
// Simulated PMU counters (sim/pmu) are that independent signal.  This
// pass takes a calibration campaign whose table carries `pmu.*` counter
// columns, derives counter-based rates (cycles per access, MPKI per
// level, IPC, effective frequency), and confronts them with what a
// *claimed* machine spec predicts through the same whitebox models the
// calibration fits use:
//
//   stall_accounting:  measured stall cycles  vs  sum over levels of
//                      (claimed per-level hit stall) x (counted hits) --
//                      a mis-calibrated cache latency shows up exactly
//                      in the size regime that hits that level;
//   cycle_accounting:  measured cycles  vs  issue-model cycles plus the
//                      *measured* stalls -- isolates the issue model
//                      from the stall model;
//   effective_frequency: cycles / elapsed  vs  the claimed DVFS range --
//                        timer noise or a hidden governor regime makes
//                        the clock contradict the cycle counter.
//
// A finding is recorded per cell per check; contradictions (findings
// whose relative error exceeds the tolerance) fail the report.  Honest
// specs pass because the simulator's counters and its timing come from
// the same mechanisms; a planted wrong latency cannot hide, because the
// counters pin down *how many times* each level was hit.
//
// Required metric columns: pmu.cycles, pmu.instructions, pmu.l1_hits,
// pmu.l1_misses, pmu.l2_hits, pmu.llc_hits, pmu.mem_accesses,
// pmu.stall_cycles, elapsed_s.  Required factors: elem_bytes, unroll
// (the canonical mem-calibration names).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/record.hpp"
#include "core/value.hpp"
#include "sim/machine.hpp"

namespace cal::stats {

struct CrosscheckOptions {
  /// Relative error above which a stall/cycle accounting finding is a
  /// contradiction.  The simulator is counter-exact mod rounding, so an
  /// honest spec sits orders of magnitude below this.
  double accounting_tolerance = 0.15;
  /// Slack on the claimed [min, max] DVFS range for effective frequency.
  double frequency_tolerance = 0.10;
  /// Cells whose stall mass is below this many cycles per access skip
  /// the stall contradiction flag: relative error on ~zero stalls is
  /// noise, not signal (L1-resident cells).
  double min_stall_per_access = 0.5;
};

/// Counter-derived rates for one plan cell (means over replicates).
struct CounterRates {
  std::size_t cell_index = 0;
  FactorRow factors;                 ///< first record's factor values
  double accesses = 0.0;             ///< l1_hits + l1_misses
  double cycles_per_access = 0.0;
  double ipc = 0.0;                  ///< instructions / cycles
  double l1_mpki = 0.0;              ///< l1 misses per kilo-instruction
  double l2_mpki = 0.0;
  double llc_mpki = 0.0;
  double mem_per_kilo_instr = 0.0;
  double effective_ghz = 0.0;        ///< cycles / elapsed
};

struct CrosscheckFinding {
  std::string check;          ///< stall_accounting | cycle_accounting |
                              ///< effective_frequency
  std::size_t cell_index = 0;
  FactorRow factors;
  double measured = 0.0;
  double predicted = 0.0;
  double rel_error = 0.0;
  bool flagged = false;       ///< contradiction under the tolerances
  std::string note;           ///< human-readable context
};

struct CrosscheckReport {
  std::vector<CounterRates> rates;        ///< one per cell
  std::vector<CrosscheckFinding> findings;  ///< one per cell per check
  std::size_t cells = 0;
  std::size_t contradictions = 0;

  bool passed() const noexcept { return contradictions == 0; }

  /// Printable verdict: summary line, then every flagged finding.
  std::string to_text() const;
};

/// Runs every check of `table`'s counter columns against `claimed`.
/// Throws std::invalid_argument when a required column is missing.
CrosscheckReport counter_crosscheck(const RawTable& table,
                                    const sim::MachineSpec& claimed,
                                    const CrosscheckOptions& options = {});

}  // namespace cal::stats
