#include "stats/modes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace cal::stats {

ModeSplit split_modes(std::span<const double> xs, ModeOptions options) {
  if (xs.size() < 2) {
    throw std::invalid_argument("split_modes: need at least 2 points");
  }
  double lo = min_value(xs);
  double hi = max_value(xs);
  ModeSplit split;
  if (lo == hi) {
    split.low_center = split.high_center = lo;
    split.low_count = xs.size();
    split.threshold = lo;
    return split;
  }

  double c_low = lo, c_high = hi;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    double sum_low = 0, sum_high = 0;
    std::size_t n_low = 0, n_high = 0;
    const double mid = 0.5 * (c_low + c_high);
    for (const double x : xs) {
      if (x <= mid) {
        sum_low += x;
        ++n_low;
      } else {
        sum_high += x;
        ++n_high;
      }
    }
    if (n_low == 0 || n_high == 0) break;
    const double new_low = sum_low / static_cast<double>(n_low);
    const double new_high = sum_high / static_cast<double>(n_high);
    if (new_low == c_low && new_high == c_high) break;
    c_low = new_low;
    c_high = new_high;
  }

  split.low_center = c_low;
  split.high_center = c_high;
  split.threshold = 0.5 * (c_low + c_high);

  std::vector<double> low_pts, high_pts;
  for (const double x : xs) {
    if (x <= split.threshold) {
      low_pts.push_back(x);
    } else {
      high_pts.push_back(x);
    }
  }
  split.low_count = low_pts.size();
  split.high_count = high_pts.size();

  const double var_low = low_pts.size() > 1 ? variance(low_pts) : 0.0;
  const double var_high = high_pts.size() > 1 ? variance(high_pts) : 0.0;
  const auto n_low = static_cast<double>(low_pts.size());
  const auto n_high = static_cast<double>(high_pts.size());
  const double pooled =
      std::sqrt(((n_low > 1 ? (n_low - 1) * var_low : 0.0) +
                 (n_high > 1 ? (n_high - 1) * var_high : 0.0)) /
                std::max(n_low + n_high - 2.0, 1.0));
  const double gap = split.high_center - split.low_center;
  split.separation = pooled > 0.0 ? gap / pooled
                     : gap > 0.0  ? std::numeric_limits<double>::infinity()
                                  : 0.0;

  const auto total = static_cast<double>(xs.size());
  const double frac_low = n_low / total;
  const double frac_high = n_high / total;
  split.bimodal = split.separation >= options.separation_threshold &&
                  frac_low >= options.min_fraction &&
                  frac_high >= options.min_fraction;
  return split;
}

Histogram histogram(std::span<const double> xs, std::size_t bins) {
  if (xs.empty()) throw std::invalid_argument("histogram: empty input");
  if (bins == 0) throw std::invalid_argument("histogram: zero bins");
  Histogram h;
  h.lo = min_value(xs);
  h.hi = max_value(xs);
  h.counts.assign(bins, 0);
  if (h.hi == h.lo) {
    h.bin_width = 1.0;
    h.counts[0] = xs.size();
    return h;
  }
  h.bin_width = (h.hi - h.lo) / static_cast<double>(bins);
  for (const double x : xs) {
    auto b = static_cast<std::size_t>((x - h.lo) / h.bin_width);
    if (b >= bins) b = bins - 1;
    ++h.counts[b];
  }
  return h;
}

}  // namespace cal::stats
