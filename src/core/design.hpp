#pragma once
// Experiment design generation (stage 1 of the methodology).
//
// DesignBuilder crosses all fixed-levels factors full-factorially,
// replicates each cell, draws per-run values for sampled factors, and
// randomizes the run order.  The result is a Plan: an explicit, serialized
// list of runs that the measurement engine executes *in order*.
//
// Randomizing the run order is the paper's key defense against temporal
// perturbations (pitfall P1): any time-localized disturbance is spread
// uniformly over factor combinations instead of corrupting one contiguous
// slice of the design, and it becomes detectable by plotting measurements
// against their sequence index (Fig. 11, right panel).

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/factor.hpp"
#include "core/row.hpp"
#include "core/value.hpp"

namespace cal {

/// One planned run: values for each factor, in the plan's factor order.
/// In a plan without sampled factors every run of a cell shares one
/// interned row; with one, each run has its own row.
struct PlannedRun {
  std::size_t run_index = 0;   ///< position in execution order (0-based)
  std::size_t cell_index = 0;  ///< which factorial cell this run replicates
  std::size_t replicate = 0;   ///< replicate number within the cell
  FactorRow values;            ///< one value per plan factor
};

/// A fully materialized experiment plan.
class Plan {
 public:
  Plan(std::vector<Factor> factors, std::vector<PlannedRun> runs,
       std::uint64_t seed);

  const std::vector<Factor>& factors() const noexcept { return factors_; }
  const std::vector<PlannedRun>& runs() const noexcept { return runs_; }
  std::uint64_t seed() const noexcept { return seed_; }

  std::size_t size() const noexcept { return runs_.size(); }

  /// Index of a factor by name; throws if absent.
  std::size_t factor_index(const std::string& name) const;

  /// Value of factor `name` in run `run`.
  const Value& value(std::size_t run, const std::string& name) const;

  /// Serializes to CSV: '#' metadata comments, a header row of factor
  /// names prefixed by run/cell/replicate bookkeeping columns, then one
  /// row per run in execution order.
  void write_csv(std::ostream& out) const;

  /// Reads a plan back.  Factor kind information is reduced to
  /// kLevels-of-observed-values (enough to re-run the exact same plan,
  /// which is the point of serializing it).
  static Plan read_csv(std::istream& in);

 private:
  std::vector<Factor> factors_;
  std::vector<PlannedRun> runs_;
  std::uint64_t seed_ = 0;
};

/// Builds plans.  Usage:
///   auto plan = DesignBuilder(seed)
///       .add(Factor::levels("stride", {1, 2, 4, 8}))
///       .add(Factor::log_uniform_int("size_bytes", 1, 1 << 20))
///       .replications(42)
///       .randomize(true)
///       .build();
class DesignBuilder {
 public:
  explicit DesignBuilder(std::uint64_t seed) : seed_(seed) {}

  DesignBuilder& add(Factor factor);

  /// Number of replicates per factorial cell (default 1).
  DesignBuilder& replications(std::size_t n);

  /// Randomize execution order (default true).  Turning this off
  /// reproduces the "sequential sweep" behavior of opaque benchmarks and
  /// is used by the ablation studies.
  DesignBuilder& randomize(bool on);

  /// For sampled factors: how many runs to generate per factorial cell
  /// and replicate (default 1).  E.g. 1000 random message sizes.
  DesignBuilder& samples_per_cell(std::size_t n);

  Plan build() const;

 private:
  std::uint64_t seed_;
  std::vector<Factor> factors_;
  std::size_t replications_ = 1;
  std::size_t samples_per_cell_ = 1;
  bool randomize_ = true;
};

}  // namespace cal
