#pragma once
// Design-of-Experiments effect analysis.
//
// The methodology is grounded in DoE (the paper cites Montgomery); once a
// randomized factorial campaign has produced a raw table, the natural
// first analysis is: which factors actually move the response, and by
// how much?  main_effects() estimates per-level effects and a
// variance-decomposition share for each factor.  This is how Fig. 13's
// cause-and-effect diagram is turned into numbers.

#include <string>
#include <vector>

#include "core/record.hpp"

namespace cal::stats {

struct LevelEffect {
  Value level;
  std::size_t n = 0;
  double mean = 0.0;
  double effect = 0.0;  ///< mean(level) - grand mean
};

struct FactorEffect {
  std::string factor;
  double grand_mean = 0.0;
  std::vector<LevelEffect> levels;
  /// Between-level sum of squares over total sum of squares: the share
  /// of the response variance this factor explains on its own.
  double variance_share = 0.0;
  /// max |effect| across levels, in units of the response.
  double max_abs_effect = 0.0;
};

/// Main effects of all factors on a metric, sorted by descending
/// variance share.  Throws std::invalid_argument on an empty table.
std::vector<FactorEffect> main_effects(const RawTable& table,
                                       const std::string& metric);

}  // namespace cal::stats
