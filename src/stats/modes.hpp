#pragma once
// Mode (multi-modality) detection.
//
// Fig. 11's lesson: with a real-time scheduler, bandwidth was *bimodal*
// (a high mode and a ~5x lower mode in 20-25% of runs), which mean +/- sd
// summaries hide entirely.  ModeSplit performs a 1-D two-means split and
// reports a separation score so analyses can flag "two modes" instead of
// "high variance".

#include <span>
#include <vector>

namespace cal::stats {

struct ModeSplit {
  double low_center = 0.0;
  double high_center = 0.0;
  std::size_t low_count = 0;
  std::size_t high_count = 0;
  double threshold = 0.0;   ///< boundary between the clusters
  double separation = 0.0;  ///< |high-low| / pooled within-cluster sd
  bool bimodal = false;     ///< separation above the decision threshold
                            ///< and both clusters non-trivial

  double low_fraction() const noexcept {
    const auto total = static_cast<double>(low_count + high_count);
    return total > 0 ? static_cast<double>(low_count) / total : 0.0;
  }
};

struct ModeOptions {
  /// Minimum separation to call the sample bimodal.  A two-means split of
  /// a pure Gaussian yields ~2.7 and of a uniform ~3.5, so the default
  /// stays above both; genuinely bimodal timing data (Fig. 11: modes 5x
  /// apart) scores an order of magnitude higher.
  double separation_threshold = 4.0;
  double min_fraction = 0.05;  ///< each mode must hold >= 5% of data
  std::size_t max_iterations = 64;
};

/// Two-means split of a 1-D sample (Lloyd iterations seeded at the
/// extremes).  Requires at least 2 points.
ModeSplit split_modes(std::span<const double> xs, ModeOptions options = {});

/// Histogram with equal-width bins over [min, max]; used by diagnostics
/// and tests to eyeball distributions.
struct Histogram {
  double lo = 0.0, hi = 0.0, bin_width = 0.0;
  std::vector<std::size_t> counts;
};

Histogram histogram(std::span<const double> xs, std::size_t bins);

}  // namespace cal::stats
