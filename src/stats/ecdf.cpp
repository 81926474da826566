#include "stats/ecdf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cal::stats {

Ecdf::Ecdf(std::span<const double> xs) : sorted_(xs.begin(), xs.end()) {
  if (sorted_.empty()) throw std::invalid_argument("Ecdf: empty sample");
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double p) const {
  if (p <= 0.0 || p > 1.0) {
    throw std::invalid_argument("Ecdf::quantile: p not in (0, 1]");
  }
  const auto n = static_cast<double>(sorted_.size());
  const auto idx = static_cast<std::size_t>(std::ceil(p * n)) - 1;
  return sorted_[std::min(idx, sorted_.size() - 1)];
}

}  // namespace cal::stats
