#include "stats/piecewise.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace cal::stats {

double PiecewiseFit::predict(double x) const {
  if (segments.empty()) throw std::logic_error("PiecewiseFit: no segments");
  std::size_t i = 0;
  while (i + 1 < segments.size() && !(x < segments[i].hi)) ++i;
  return segments[i].fit.predict(x);
}

PiecewiseFit fit_piecewise(std::span<const double> xs,
                           std::span<const double> ys,
                           std::vector<double> breakpoints) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("fit_piecewise: size mismatch");
  }
  if (xs.empty()) throw std::invalid_argument("fit_piecewise: empty input");
  std::sort(breakpoints.begin(), breakpoints.end());

  PiecewiseFit out;
  out.breakpoints = breakpoints;
  out.n = xs.size();

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> bounds;
  bounds.push_back(-inf);
  for (const double b : breakpoints) bounds.push_back(b);
  bounds.push_back(inf);

  const double global_mean = mean(ys);

  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    const double lo = bounds[s];
    const double hi = bounds[s + 1];
    std::vector<double> seg_x, seg_y;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (xs[i] >= lo && xs[i] < hi) {
        seg_x.push_back(xs[i]);
        seg_y.push_back(ys[i]);
      }
    }
    Segment seg;
    seg.lo = lo;
    seg.hi = hi;
    if (seg_x.size() >= 2) {
      seg.fit = linear_fit(seg_x, seg_y);
    } else {
      // Degenerate segment: constant at local (or global) mean; flagged
      // to the analyst via fit.n < 2.
      seg.fit.n = seg_x.size();
      seg.fit.slope = 0.0;
      seg.fit.intercept = seg_x.empty() ? global_mean : seg_y.front();
      seg.fit.rss = 0.0;
      seg.fit.r2 = 0.0;
    }
    out.total_rss += seg.fit.rss;
    out.segments.push_back(std::move(seg));
  }
  return out;
}

}  // namespace cal::stats
