// FactorRow and MetricRow: the value rows of planned runs and records.
//
// FactorRow must read like the std::vector<Value> it replaced while its
// copies share one storage; DesignBuilder must intern one row per cell
// of a level-only plan and give every run of a sampled plan its own; the
// engine's records must hand the plan's rows on, value for value.
// MetricRow must behave like a std::vector<double> on both sides of its
// inline capacity.

#include "core/row.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/design.hpp"
#include "core/engine.hpp"

namespace cal {
namespace {

TEST(FactorRow, ReadsLikeTheVectorItWasBuiltFrom) {
  const std::vector<Value> values = {Value(8), Value(2.5), Value("send")};
  const FactorRow row = values;
  ASSERT_EQ(row.size(), 3u);
  EXPECT_FALSE(row.empty());
  EXPECT_EQ(row[0].as_int(), 8);
  EXPECT_EQ(row[1].as_real(), 2.5);
  EXPECT_EQ(row.at(2).as_string(), "send");
  EXPECT_THROW(row.at(3), std::out_of_range);
  EXPECT_TRUE(std::equal(row.begin(), row.end(), values.begin(), values.end()));
  EXPECT_EQ(row, (FactorRow{Value(8), Value(2.5), Value("send")}));
  // Value equality: an int and an equal real compare equal, as in a vector.
  EXPECT_EQ(row, (FactorRow{Value(8.0), Value(2.5), Value("send")}));
  EXPECT_NE(row, (FactorRow{Value(8), Value(2.5)}));
  EXPECT_NE(row, (FactorRow{Value(8), Value(2.5), Value("recv")}));

  const FactorRow empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.begin(), empty.end());
  EXPECT_EQ(empty, FactorRow(std::vector<Value>{}));
}

TEST(FactorRow, CopiesShareStorageAndOutliveTheOriginal) {
  FactorRow copy;
  {
    const FactorRow original = {Value("a fairly long level name, not SSO"),
                                Value(1)};
    copy = original;
    EXPECT_TRUE(copy.shares_storage_with(original));
    const FactorRow rebuilt(std::span<const Value>(original.data(), 2));
    EXPECT_FALSE(rebuilt.shares_storage_with(original));
    EXPECT_EQ(rebuilt, original);
  }
  EXPECT_EQ(copy[0].as_string(), "a fairly long level name, not SSO");

  FactorRow moved = std::move(copy);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.size(), 2u);
  moved = moved;  // self-assignment keeps the row
  EXPECT_EQ(moved[1].as_int(), 1);
}

TEST(MetricRow, InlineRowsBehaveLikeVectors) {
  MetricRow row = {1.0, 2.0, 3.0};
  EXPECT_EQ(row.size(), 3u);
  EXPECT_FALSE(row.spilled());
  row.push_back(4.0);
  EXPECT_EQ(row.size(), MetricRow::kInlineCapacity);
  EXPECT_FALSE(row.spilled());
  EXPECT_EQ(static_cast<std::vector<double>>(row),
            (std::vector<double>{1.0, 2.0, 3.0, 4.0}));

  MetricRow copy = row;
  copy[0] = 9.0;
  EXPECT_EQ(row[0], 1.0);
  EXPECT_NE(copy, row);
  copy.resize(2);
  EXPECT_EQ(copy, (MetricRow{9.0, 2.0}));
  copy.resize(3);
  EXPECT_EQ(copy, (MetricRow{9.0, 2.0, 0.0}));
}

TEST(MetricRow, SpillsPastInlineCapacityAndKeepsEveryValue) {
  MetricRow row;
  std::vector<double> want;
  for (int i = 0; i < 37; ++i) {
    row.push_back(i * 0.5);
    want.push_back(i * 0.5);
  }
  EXPECT_TRUE(row.spilled());
  EXPECT_EQ(static_cast<std::vector<double>>(row), want);

  MetricRow copy = row;  // deep copy
  copy[3] = -1.0;
  EXPECT_EQ(row[3], 1.5);

  MetricRow moved = std::move(row);
  EXPECT_EQ(row.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(row.spilled());
  EXPECT_EQ(static_cast<std::vector<double>>(moved), want);

  moved = MetricRow{1.0};  // a spilled row takes an inline one
  EXPECT_EQ(moved, (MetricRow{1.0}));
  MetricRow wide;
  wide.assign(want.data(), want.data() + want.size());
  EXPECT_EQ(static_cast<std::vector<double>>(wide), want);
  wide = wide;  // self-assignment keeps the row
  EXPECT_EQ(wide.size(), want.size());
}

TEST(MetricRow, NanComparesUnequalAsInAVector) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE((MetricRow{nan}), (MetricRow{nan}));
  EXPECT_EQ((MetricRow{-0.0}), (MetricRow{0.0}));
}

Plan level_plan() {
  return DesignBuilder(9)
      .add(Factor::levels("size", {Value(64), Value(4096), Value(1 << 20)}))
      .add(Factor::levels("op", {Value("send"), Value("recv")}))
      .replications(7)
      .build();
}

TEST(PlanRows, LevelOnlyPlanSharesOneRowPerCell) {
  const Plan plan = level_plan();
  std::vector<const PlannedRun*> first_of_cell(6, nullptr);
  for (const PlannedRun& run : plan.runs()) {
    const PlannedRun*& first = first_of_cell.at(run.cell_index);
    if (first == nullptr) {
      first = &run;
      continue;
    }
    EXPECT_TRUE(run.values.shares_storage_with(first->values))
        << "run " << run.run_index << " of cell " << run.cell_index;
  }
  for (std::size_t a = 0; a < first_of_cell.size(); ++a) {
    for (std::size_t b = a + 1; b < first_of_cell.size(); ++b) {
      EXPECT_FALSE(first_of_cell[a]->values.shares_storage_with(
          first_of_cell[b]->values));
    }
  }
}

TEST(PlanRows, SampledPlanKeepsOneRowPerRun) {
  const Plan plan = DesignBuilder(9)
                        .add(Factor::levels("op", {Value("send")}))
                        .add(Factor::log_uniform_int("size", 1, 1 << 20))
                        .replications(3)
                        .samples_per_cell(20)
                        .build();
  std::set<const Value*> storage;
  for (const PlannedRun& run : plan.runs()) storage.insert(run.values.data());
  EXPECT_EQ(storage.size(), plan.size());
}

TEST(PlanRows, ReadBackPlanSharesOneRowPerCell) {
  const Plan plan = level_plan();
  std::stringstream csv;
  plan.write_csv(csv);
  const Plan back = Plan::read_csv(csv);
  ASSERT_EQ(back.size(), plan.size());
  std::vector<const FactorRow*> first_of_cell(6, nullptr);
  for (std::size_t i = 0; i < back.size(); ++i) {
    const PlannedRun& run = back.runs()[i];
    EXPECT_EQ(run.values, plan.runs()[i].values);
    const FactorRow*& first = first_of_cell.at(run.cell_index);
    if (first == nullptr) first = &run.values;
    EXPECT_TRUE(run.values.shares_storage_with(*first));
  }
}

TEST(PlanRows, ReadBackRowsShareOnlyIdenticalText) {
  // "1" and "1.0" compare equal as Values but are an int and a real; a
  // huge cell index must not size anything.
  std::stringstream csv(
      "run,cell,replicate,x\n"
      "0,18446744073709551615,0,1\n"
      "1,18446744073709551615,1,1.0\n"
      "2,18446744073709551615,2,1.0\n");
  const Plan plan = Plan::read_csv(csv);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_TRUE(plan.runs()[0].values[0].is_int());
  EXPECT_TRUE(plan.runs()[1].values[0].is_real());
  EXPECT_FALSE(
      plan.runs()[0].values.shares_storage_with(plan.runs()[1].values));
  EXPECT_TRUE(
      plan.runs()[1].values.shares_storage_with(plan.runs()[2].values));
}

TEST(PlanRows, EngineRecordsCarryThePlansRowsValueForValue) {
  const Plan plan = level_plan();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    Engine::Options options;
    options.threads = threads;
    options.sink_batch = 5;
    const RawTable table =
        Engine({"m"}, options)
            .run(plan, [](const PlannedRun& run, MeasureContext&) {
              return MeasureResult{{run.values[0].as_real()}, 1e-6};
            });
    ASSERT_EQ(table.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const FactorRow& planned = plan.runs()[i].values;
      const FactorRow& recorded = table.records()[i].factors;
      ASSERT_EQ(recorded.size(), planned.size());
      for (std::size_t f = 0; f < planned.size(); ++f) {
        EXPECT_EQ(recorded[f], planned[f]) << "run " << i << " factor " << f;
      }
      EXPECT_TRUE(recorded.shares_storage_with(planned));
      EXPECT_EQ(table.records()[i].metrics,
                (MetricRow{planned[0].as_real()}));
    }
  }
}

}  // namespace
}  // namespace cal
