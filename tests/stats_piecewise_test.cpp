// Tests for supervised piecewise-linear regression (the paper's stage-3
// analysis method).

#include "stats/piecewise.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"

namespace cal::stats {
namespace {

// A two-regime piecewise ground truth: y = 2x for x < 50, y = 100 + 10(x-50).
double two_regime(double x) { return x < 50 ? 2.0 * x : 100.0 + 10.0 * (x - 50.0); }

TEST(Piecewise, RecoversTwoSegments) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i);
    ys.push_back(two_regime(i));
  }
  const PiecewiseFit fit = fit_piecewise(xs, ys, {50.0});
  ASSERT_EQ(fit.segments.size(), 2u);
  EXPECT_NEAR(fit.segments[0].fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.segments[1].fit.slope, 10.0, 1e-9);
  EXPECT_NEAR(fit.total_rss, 0.0, 1e-6);
}

TEST(Piecewise, PredictUsesCorrectSegment) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i);
    ys.push_back(two_regime(i));
  }
  const PiecewiseFit fit = fit_piecewise(xs, ys, {50.0});
  EXPECT_NEAR(fit.predict(10.0), 20.0, 1e-9);
  EXPECT_NEAR(fit.predict(60.0), 200.0, 1e-9);
  // Either side of the breakpoint: segment 0 below, segment 1 above.
  EXPECT_NEAR(fit.predict(49.9), 99.8, 1e-9);
  EXPECT_NEAR(fit.predict(50.5), 105.0, 1e-9);
}

TEST(Piecewise, BreakpointsAreSorted) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 90; ++i) {
    xs.push_back(i);
    ys.push_back(i);
  }
  const PiecewiseFit fit = fit_piecewise(xs, ys, {60.0, 30.0});
  ASSERT_EQ(fit.breakpoints.size(), 2u);
  EXPECT_LT(fit.breakpoints[0], fit.breakpoints[1]);
  EXPECT_EQ(fit.segments.size(), 3u);
}

TEST(Piecewise, NoBreakpointsIsPlainOls) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(1.0 + 3.0 * i);
  }
  const PiecewiseFit fit = fit_piecewise(xs, ys, {});
  ASSERT_EQ(fit.segments.size(), 1u);
  EXPECT_NEAR(fit.segments[0].fit.slope, 3.0, 1e-10);
}

TEST(Piecewise, EmptySegmentIsFlaggedNotFatal) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {1, 2, 3, 4};
  // Break at 100: second segment has no data.
  const PiecewiseFit fit = fit_piecewise(xs, ys, {100.0});
  ASSERT_EQ(fit.segments.size(), 2u);
  EXPECT_LT(fit.segments[1].fit.n, 2u);  // analyst sees the degenerate fit
}

TEST(Piecewise, Validation) {
  const std::vector<double> xs = {1.0};
  const std::vector<double> ys = {1.0, 2.0};
  EXPECT_THROW(fit_piecewise(xs, ys, {}), std::invalid_argument);
  EXPECT_THROW(fit_piecewise({}, {}, {}), std::invalid_argument);
}

TEST(Piecewise, NoisyRecoveryWithinTolerance) {
  Rng rng(17);
  std::vector<double> xs, ys;
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(0.0, 100.0);
    xs.push_back(x);
    ys.push_back(two_regime(x) + rng.normal(0.0, 3.0));
  }
  const PiecewiseFit fit = fit_piecewise(xs, ys, {50.0});
  EXPECT_NEAR(fit.segments[0].fit.slope, 2.0, 0.05);
  EXPECT_NEAR(fit.segments[1].fit.slope, 10.0, 0.1);
}

// Property: adding the true breakpoint never increases total RSS
// relative to a single-line fit.
class BreakGainTest : public ::testing::TestWithParam<double> {};

TEST_P(BreakGainTest, TrueBreakImprovesFit) {
  const double brk = GetParam();
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = i * 0.5;
    xs.push_back(x);
    ys.push_back(x < brk ? x : brk + 5.0 * (x - brk));
  }
  const PiecewiseFit without = fit_piecewise(xs, ys, {});
  const PiecewiseFit with = fit_piecewise(xs, ys, {brk});
  EXPECT_LE(with.total_rss, without.total_rss + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Breaks, BreakGainTest,
                         ::testing::Values(20.0, 50.0, 80.0));

}  // namespace
}  // namespace cal::stats
