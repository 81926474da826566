// Tests for the outlier diagnostics.

#include "stats/outlier.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"

namespace cal::stats {
namespace {

TEST(Diagnosis, ScatteredOutliersNotClustered) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal(100.0, 2.0));
  // Scatter 10 isolated spikes far apart.
  for (int i = 0; i < 10; ++i) xs[static_cast<std::size_t>(i) * 50 + 7] = 200.0;
  const auto diag = diagnose_outliers(xs);
  EXPECT_GE(diag.indices.size(), 10u);
  EXPECT_FALSE(diag.temporally_clustered);
}

TEST(Diagnosis, PerturbationWindowIsClustered) {
  // The Fig. 11 signature: the low mode occupies one contiguous window
  // of the execution sequence.
  Rng rng(4);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    double v = rng.normal(100.0, 2.0);
    if (i >= 200 && i < 280) v = rng.normal(20.0, 2.0);  // window
    xs.push_back(v);
  }
  const auto diag = diagnose_outliers(xs, 3.0);
  EXPECT_GT(diag.fraction, 0.10);
  EXPECT_TRUE(diag.temporally_clustered);
  EXPECT_GT(diag.clustering_score, 3.0);
}

TEST(Diagnosis, CleanDataHasNoFlags) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.uniform(99.0, 101.0));
  const auto diag = diagnose_outliers(xs);
  EXPECT_LT(diag.fraction, 0.02);
  EXPECT_FALSE(diag.temporally_clustered);
}

TEST(Diagnosis, TooFewPointsIsEmpty) {
  const std::vector<double> xs = {1, 2, 3};
  const auto diag = diagnose_outliers(xs);
  EXPECT_TRUE(diag.indices.empty());
}

}  // namespace
}  // namespace cal::stats
