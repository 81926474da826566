// Tests for OLS linear regression.

#include "stats/regression.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"

namespace cal::stats {
namespace {

TEST(LinearFit, RecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-10);
  EXPECT_NEAR(fit.slope, 2.0, 1e-10);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_NEAR(fit.rss, 0.0, 1e-9);
  EXPECT_EQ(fit.n, 20u);
}

TEST(LinearFit, NoisyLineWithinTolerance) {
  Rng rng(3);
  std::vector<double> xs, ys;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(0.0, 100.0);
    xs.push_back(x);
    ys.push_back(5.0 - 0.75 * x + rng.normal(0.0, 2.0));
  }
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, -0.75, 0.01);
  EXPECT_NEAR(fit.intercept, 5.0, 0.5);
  EXPECT_GT(fit.r2, 0.98);
  EXPECT_GT(fit.slope_stderr, 0.0);
}

TEST(LinearFit, VerticalCloudFallsBackToMean) {
  const std::vector<double> xs = {2, 2, 2, 2};
  const std::vector<double> ys = {1, 2, 3, 4};
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.5);
}

TEST(LinearFit, Validation) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(linear_fit(one, one), std::invalid_argument);
  const std::vector<double> two = {1.0, 2.0};
  const std::vector<double> three = {1.0, 2.0, 3.0};
  EXPECT_THROW(linear_fit(two, three), std::invalid_argument);
}

TEST(LinearFit, PredictEvaluatesLine) {
  LinearFit fit;
  fit.intercept = 1.0;
  fit.slope = 0.5;
  EXPECT_DOUBLE_EQ(fit.predict(4.0), 3.0);
}

TEST(LinearFit, OlsMinimizesRss) {
  // Property: the OLS fit's RSS is no worse than nearby perturbed lines.
  Rng rng(7);
  std::vector<double> xs, ys;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    xs.push_back(x);
    ys.push_back(2.0 * x + rng.normal(0.0, 1.0));
  }
  const LinearFit fit = linear_fit(xs, ys);
  const auto line_rss = [&](double intercept, double slope) {
    double rss = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double r = ys[i] - (intercept + slope * xs[i]);
      rss += r * r;
    }
    return rss;
  };
  for (const double ds : {-0.1, 0.1}) {
    for (const double di : {-0.5, 0.5}) {
      EXPECT_LE(fit.rss,
                line_rss(fit.intercept + di, fit.slope + ds) + 1e-9);
    }
  }
}

}  // namespace
}  // namespace cal::stats
