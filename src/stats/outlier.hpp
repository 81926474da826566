#pragma once
// Outlier diagnostics: what the methodology does instead of filtering.
//
// The paper's complaint is not that outliers are detected, but that they
// are *silently removed* before the analyst ever sees them -- hiding real
// phenomena such as the bimodal scheduler modes of Fig. 11.  So the
// library offers no filter: diagnose_outliers() flags the points and
// reports whether they cluster in time, and the data stays whole.

#include <cstddef>
#include <span>
#include <vector>

namespace cal::stats {

/// Outlier diagnostic for the analyst: how many, how extreme, and whether
/// they are temporally clustered (suggesting a perturbation window, as in
/// Fig. 11 right) rather than i.i.d. noise.
struct OutlierDiagnosis {
  std::vector<std::size_t> indices;   ///< positions of flagged points
  double fraction = 0.0;              ///< flagged / total
  double max_abs_z = 0.0;             ///< most extreme robust z-score
  bool temporally_clustered = false;  ///< flagged points adjacent in time
  double clustering_score = 0.0;      ///< observed/expected adjacent pairs
};

/// Flags by robust z (median/MAD) and tests temporal clustering assuming
/// xs is ordered by measurement sequence.
OutlierDiagnosis diagnose_outliers(std::span<const double> xs,
                                   double z_threshold = 3.5);

}  // namespace cal::stats
