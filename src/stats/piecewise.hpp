#pragma once
// Supervised piecewise-linear regression (the paper's stage-3 method).
//
// "The breakpoints are manually provided by the analyst and a piecewise
// linear regression is calculated for each of the three operations"
// (Section V-A).  fit_piecewise() takes analyst breakpoints, splits the
// data into half-open segments [b_i, b_{i+1}), fits OLS per segment, and
// reports per-segment diagnostics so a human can "check the linearity
// assumption, if the breakpoints are coherent, and the outcome of the
// regressions".

#include <span>
#include <vector>

#include "stats/regression.hpp"

namespace cal::stats {

struct Segment {
  double lo = 0.0;       ///< inclusive lower x bound
  double hi = 0.0;       ///< exclusive upper x bound (inf for the last)
  LinearFit fit;
};

struct PiecewiseFit {
  std::vector<double> breakpoints;  ///< interior breakpoints, ascending
  std::vector<Segment> segments;    ///< breakpoints.size() + 1 entries
  double total_rss = 0.0;
  std::size_t n = 0;

  /// Predicts with the segment containing x.
  double predict(double x) const;
};

/// Fits a piecewise linear model with the given interior breakpoints.
/// Segments with fewer than 2 points get a degenerate constant fit at the
/// segment's mean (or the global mean when empty) and are flagged by
/// fit.n < 2 for the analyst to see.
PiecewiseFit fit_piecewise(std::span<const double> xs,
                           std::span<const double> ys,
                           std::vector<double> breakpoints);

}  // namespace cal::stats
