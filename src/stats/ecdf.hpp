#pragma once
// Empirical distribution characterization.
//
// The Confidence tool (Section II-B of the paper) argued that variability
// itself is a first-class characteristic of modern HPC systems, hidden by
// mean-reporting benchmarks.  Ecdf gives the analysis stage the empirical
// CDF of a raw sample: evaluation, quantile inversion and tail
// probabilities.

#include <span>
#include <vector>

namespace cal::stats {

class Ecdf {
 public:
  /// Builds from a sample (copied and sorted).  Requires non-empty input.
  explicit Ecdf(std::span<const double> xs);

  /// F(x): fraction of the sample <= x.
  double operator()(double x) const;

  /// Smallest sample value v with F(v) >= p, p in (0, 1].
  double quantile(double p) const;

  /// P(X > x).
  double tail(double x) const { return 1.0 - (*this)(x); }

  std::size_t size() const noexcept { return sorted_.size(); }
  double min() const { return sorted_.front(); }
  double max() const { return sorted_.back(); }

 private:
  std::vector<double> sorted_;
};

}  // namespace cal::stats
