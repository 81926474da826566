#include "stats/outlier.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"

namespace cal::stats {

OutlierDiagnosis diagnose_outliers(std::span<const double> xs,
                                   double z_threshold) {
  OutlierDiagnosis diag;
  if (xs.size() < 4) return diag;

  const double med = median(xs);
  const double scale = std::max(mad(xs) * 1.4826, 1e-30);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double z = std::abs(xs[i] - med) / scale;
    diag.max_abs_z = std::max(diag.max_abs_z, z);
    if (z > z_threshold) diag.indices.push_back(i);
  }
  diag.fraction =
      static_cast<double>(diag.indices.size()) / static_cast<double>(xs.size());

  // Temporal clustering: count adjacent flagged pairs and compare with
  // the expectation under a uniformly random placement of the same number
  // of flags.  A perturbation window (Fig. 11) produces a ratio >> 1.
  if (diag.indices.size() >= 2) {
    std::size_t adjacent = 0;
    for (std::size_t i = 1; i < diag.indices.size(); ++i) {
      if (diag.indices[i] == diag.indices[i - 1] + 1) ++adjacent;
    }
    const auto k = static_cast<double>(diag.indices.size());
    const auto n = static_cast<double>(xs.size());
    const double expected = std::max((k - 1.0) * (k / n), 1e-12);
    diag.clustering_score = static_cast<double>(adjacent) / expected;
    diag.temporally_clustered =
        adjacent >= 2 && diag.clustering_score > 3.0;
  }
  return diag;
}

}  // namespace cal::stats
