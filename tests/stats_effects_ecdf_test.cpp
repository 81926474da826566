// Tests for the DoE effect analysis and the ECDF characterization.

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "stats/ecdf.hpp"
#include "stats/effects.hpp"

namespace cal::stats {
namespace {

/// The main effect of `factor` among main_effects(table, "y").
FactorEffect effect_of(const RawTable& table, const std::string& factor) {
  for (const FactorEffect& effect : main_effects(table, "y")) {
    if (effect.factor == factor) return effect;
  }
  ADD_FAILURE() << "no main effect for " << factor;
  return {};
}

/// A 2x2 factorial table: response = 10*a + b_effect + noise-free.
RawTable factorial_table(double b_effect, double interaction = 0.0) {
  RawTable table({"a", "b"}, {"y"});
  std::size_t seq = 0;
  for (int rep = 0; rep < 5; ++rep) {
    for (const int a : {0, 1}) {
      for (const int b : {0, 1}) {
        RawRecord rec;
        rec.sequence = seq++;
        rec.factors = {Value(a), Value(b)};
        const double y =
            10.0 * a + b_effect * b + interaction * a * b;
        rec.metrics = {y};
        table.append(std::move(rec));
      }
    }
  }
  return table;
}

TEST(Effects, MainEffectRecoversLevelMeans) {
  const RawTable table = factorial_table(2.0);
  const FactorEffect fa = effect_of(table, "a");
  ASSERT_EQ(fa.levels.size(), 2u);
  EXPECT_NEAR(fa.levels[1].mean - fa.levels[0].mean, 10.0, 1e-9);
  EXPECT_NEAR(fa.levels[0].effect + fa.levels[1].effect, 0.0, 1e-9);
  EXPECT_NEAR(fa.max_abs_effect, 5.0, 1e-9);
}

TEST(Effects, VarianceShareOrdersFactors) {
  const RawTable table = factorial_table(2.0);
  const auto effects = main_effects(table, "y");
  ASSERT_EQ(effects.size(), 2u);
  EXPECT_EQ(effects[0].factor, "a");  // 10 >> 2
  EXPECT_GT(effects[0].variance_share, effects[1].variance_share);
  // Additive, noiseless: shares sum to ~1.
  EXPECT_NEAR(effects[0].variance_share + effects[1].variance_share, 1.0,
              1e-9);
}

TEST(Effects, NullFactorHasZeroShare) {
  const RawTable table = factorial_table(0.0);
  const FactorEffect fb = effect_of(table, "b");
  EXPECT_NEAR(fb.variance_share, 0.0, 1e-12);
  EXPECT_NEAR(fb.max_abs_effect, 0.0, 1e-12);
}

TEST(Effects, EmptyTableThrows) {
  RawTable table({"a"}, {"y"});
  EXPECT_THROW(main_effects(table, "y"), std::invalid_argument);
}

TEST(Ecdf, EvaluatesStepFunction) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const Ecdf F(xs);
  EXPECT_DOUBLE_EQ(F(0.5), 0.0);
  EXPECT_DOUBLE_EQ(F(1.0), 0.25);
  EXPECT_DOUBLE_EQ(F(2.5), 0.5);
  EXPECT_DOUBLE_EQ(F(4.0), 1.0);
  EXPECT_DOUBLE_EQ(F(9.0), 1.0);
}

TEST(Ecdf, QuantileInvertsF) {
  const std::vector<double> xs = {10, 20, 30, 40, 50};
  const Ecdf F(xs);
  EXPECT_DOUBLE_EQ(F.quantile(0.2), 10.0);
  EXPECT_DOUBLE_EQ(F.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(F.quantile(1.0), 50.0);
  EXPECT_THROW(F.quantile(0.0), std::invalid_argument);
}

TEST(Ecdf, TailProbability) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const Ecdf F(xs);
  EXPECT_DOUBLE_EQ(F.tail(2.0), 0.5);
}

TEST(Ecdf, EmptyThrows) {
  EXPECT_THROW(Ecdf(std::vector<double>{}), std::invalid_argument);
}

}  // namespace
}  // namespace cal::stats
