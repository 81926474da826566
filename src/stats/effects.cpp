#include "stats/effects.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"
#include "stats/group.hpp"

namespace cal::stats {
namespace {

double total_ss(std::span<const double> xs, double grand_mean) {
  double ss = 0.0;
  for (const double x : xs) ss += (x - grand_mean) * (x - grand_mean);
  return ss;
}

double between_ss(const std::vector<Group>& groups, double grand_mean) {
  double ss = 0.0;
  for (const auto& group : groups) {
    const double m = mean(group.samples);
    ss += static_cast<double>(group.samples.size()) * (m - grand_mean) *
          (m - grand_mean);
  }
  return ss;
}

/// Main effect of one factor on a metric.
FactorEffect main_effect(const RawTable& table, const std::string& factor,
                         const std::string& metric) {
  if (table.empty()) throw std::invalid_argument("main_effect: empty table");
  const auto response = table.metric_column(metric);
  const double grand_mean = mean(response);
  const double ss_total = total_ss(response, grand_mean);

  FactorEffect out;
  out.factor = factor;
  out.grand_mean = grand_mean;
  const auto groups = group_metric(table, {factor}, metric);
  for (const auto& group : groups) {
    LevelEffect level;
    level.level = group.key.front();
    level.n = group.samples.size();
    level.mean = mean(group.samples);
    level.effect = level.mean - grand_mean;
    out.max_abs_effect = std::max(out.max_abs_effect,
                                  std::abs(level.effect));
    out.levels.push_back(std::move(level));
  }
  out.variance_share =
      ss_total > 0.0 ? between_ss(groups, grand_mean) / ss_total : 0.0;
  return out;
}

}  // namespace

std::vector<FactorEffect> main_effects(const RawTable& table,
                                       const std::string& metric) {
  std::vector<FactorEffect> out;
  out.reserve(table.factor_names().size());
  for (const auto& factor : table.factor_names()) {
    out.push_back(main_effect(table, factor, metric));
  }
  std::sort(out.begin(), out.end(),
            [](const FactorEffect& a, const FactorEffect& b) {
              return a.variance_share > b.variance_share;
            });
  return out;
}

}  // namespace cal::stats
