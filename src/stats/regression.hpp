#pragma once
// Ordinary least squares, the workhorse of LogP-family calibration:
// T(s) = L + s/B fits, overhead fits o(s) = a + b*s, and the per-segment
// fits inside piecewise models.

#include <span>

namespace cal::stats {

struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;           ///< coefficient of determination
  double rss = 0.0;          ///< residual sum of squares
  double slope_stderr = 0.0; ///< standard error of the slope
  std::size_t n = 0;

  double predict(double x) const noexcept { return intercept + slope * x; }
};

/// Fits y = intercept + slope * x by OLS.  Requires xs.size() == ys.size()
/// and n >= 2.  A vertical cloud (all x equal) yields slope 0 and the mean
/// as intercept.
LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys);

}  // namespace cal::stats
