// Tests for mode detection: the Fig. 11 "two modes that mean/sd hides"
// diagnostic.

#include "stats/modes.hpp"

#include <gtest/gtest.h>

#include "stats/descriptive.hpp"

#include <vector>

#include "core/rng.hpp"

namespace cal::stats {
namespace {

std::vector<double> bimodal_sample(double low, double high, double low_frac,
                                   std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) {
    const bool is_low = rng.bernoulli(low_frac);
    xs.push_back(rng.normal(is_low ? low : high, 0.05 * high));
  }
  return xs;
}

TEST(ModeSplit, DetectsFigure11Bimodality) {
  // The paper's scenario: high mode ~5x the low, low mode ~22% of runs.
  const auto xs = bimodal_sample(300.0, 1500.0, 0.22, 2000, 1);
  const ModeSplit split = split_modes(xs);
  EXPECT_TRUE(split.bimodal);
  EXPECT_NEAR(split.low_center, 300.0, 60.0);
  EXPECT_NEAR(split.high_center, 1500.0, 60.0);
  EXPECT_NEAR(split.low_fraction(), 0.22, 0.04);
  EXPECT_GT(split.separation, 5.0);
}

TEST(ModeSplit, UnimodalIsNotBimodal) {
  Rng rng(2);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.normal(1000.0, 50.0));
  const ModeSplit split = split_modes(xs);
  EXPECT_FALSE(split.bimodal);
}

TEST(ModeSplit, TinyClusterDoesNotCountAsMode) {
  // 1% outliers should not be reported as a mode (min_fraction = 5%).
  const auto xs = bimodal_sample(300.0, 1500.0, 0.01, 2000, 3);
  const ModeSplit split = split_modes(xs);
  EXPECT_FALSE(split.bimodal);
}

TEST(ModeSplit, ConstantSample) {
  const std::vector<double> xs = {5.0, 5.0, 5.0};
  const ModeSplit split = split_modes(xs);
  EXPECT_FALSE(split.bimodal);
  EXPECT_DOUBLE_EQ(split.low_center, 5.0);
}

TEST(ModeSplit, TwoPointsSplitCleanly) {
  const std::vector<double> xs = {1.0, 9.0};
  const ModeSplit split = split_modes(xs);
  EXPECT_EQ(split.low_count, 1u);
  EXPECT_EQ(split.high_count, 1u);
}

TEST(ModeSplit, Validation) {
  EXPECT_THROW(split_modes(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Histogram, CountsSumToN) {
  Rng rng(4);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.uniform(0.0, 10.0));
  const Histogram h = histogram(xs, 20);
  std::size_t total = 0;
  for (const auto c : h.counts) total += c;
  EXPECT_EQ(total, 500u);
  EXPECT_DOUBLE_EQ(h.lo, min_value(xs));
  EXPECT_DOUBLE_EQ(h.hi, max_value(xs));
}

TEST(Histogram, ConstantDataSingleBin) {
  const std::vector<double> xs = {3.0, 3.0};
  const Histogram h = histogram(xs, 10);
  EXPECT_EQ(h.counts[0], 2u);
}

TEST(Histogram, Validation) {
  EXPECT_THROW(histogram(std::vector<double>{}, 4), std::invalid_argument);
  EXPECT_THROW(histogram(std::vector<double>{1.0}, 0), std::invalid_argument);
}

// Property sweep over low-mode fractions: detection works across the
// plausible contention range.
class FractionTest : public ::testing::TestWithParam<double> {};

TEST_P(FractionTest, FractionRecovered) {
  const double frac = GetParam();
  const auto xs = bimodal_sample(200.0, 1200.0, frac, 4000, 6);
  const ModeSplit split = split_modes(xs);
  EXPECT_TRUE(split.bimodal);
  EXPECT_NEAR(split.low_fraction(), frac, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Fractions, FractionTest,
                         ::testing::Values(0.10, 0.20, 0.25, 0.40));

}  // namespace
}  // namespace cal::stats
