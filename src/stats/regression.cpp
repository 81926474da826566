#include "stats/regression.hpp"

#include <cmath>
#include <stdexcept>

namespace cal::stats {

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("linear_fit: size mismatch");
  }
  if (xs.size() < 2) {
    throw std::invalid_argument("linear_fit: need at least 2 points");
  }
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }

  LinearFit fit;
  fit.n = xs.size();
  if (sxx == 0.0) {
    fit.slope = 0.0;
    fit.intercept = my;
    fit.rss = syy;
    fit.r2 = 0.0;
    fit.slope_stderr = 0.0;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.rss = syy - fit.slope * sxy;
  if (fit.rss < 0.0) fit.rss = 0.0;  // numeric guard
  fit.r2 = syy > 0.0 ? 1.0 - fit.rss / syy : 1.0;
  if (xs.size() > 2) {
    const double sigma2 = fit.rss / (n - 2.0);
    fit.slope_stderr = std::sqrt(sigma2 / sxx);
  }
  return fit;
}

}  // namespace cal::stats
