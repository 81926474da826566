// Randomized query-engine harness (the ISSUE-5 acceptance property):
// for random plans, random predicates, and worker counts {1, 2, 8}, a
// BundleQuery aggregate over the bbx bundle must be value-identical to
// the materialize-then-stats::group_metric path -- and byte-identical to
// itself (aggregate CSV) at every worker count.  A second harness drives
// selective zone-map predicates and asserts real pruning with zero
// result divergence against the zone-less (PR-4-era) manifest.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/worker_pool.hpp"
#include "io/archive/bbx_reader.hpp"
#include "io/archive/bbx_writer.hpp"
#include "query/engine.hpp"
#include "simd/dispatch.hpp"
#include "stats/descriptive.hpp"
#include "stats/group.hpp"

namespace cal {
namespace {

namespace ar = io::archive;

Plan random_plan(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> reps(3, 10);
  std::uniform_int_distribution<int> sizes(2, 4);
  DesignBuilder builder(rng());
  std::vector<Value> size_levels;
  for (int i = 0, n = sizes(rng); i < n; ++i) {
    size_levels.push_back(Value(std::int64_t{256} << i));
  }
  builder.add(Factor::levels("size", size_levels));
  builder.add(Factor::levels("op", {Value("load"), Value("store"),
                                    Value("copy")}));
  builder.add(Factor::log_uniform_real("intensity", 0.5, 2.0));
  return builder.replications(static_cast<std::size_t>(reps(rng)))
      .randomize(true)
      .build();
}

MeasureResult noisy_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double size = run.values[0].as_real();
  const double op_scale = run.values[1].as_string() == "copy" ? 2.0 : 1.0;
  const double value = size * op_scale * run.values[2].as_real() *
                       ctx.rng->lognormal_factor(0.25);
  return MeasureResult{{value, 1.0 / value}, value * 1e-8};
}

Engine make_engine() {
  Engine::Options options;
  options.seed = 4321;
  return Engine({"time_us", "inv"}, options);
}

/// A random predicate drawing on every column class the grammar knows.
query::ExprPtr random_predicate(std::mt19937_64& rng, const Plan& plan) {
  std::uniform_int_distribution<int> pick(0, 5);
  std::uniform_int_distribution<int> coin(0, 1);
  const auto leaf = [&]() -> query::ExprPtr {
    using query::CmpOp;
    using query::ColumnKind;
    using query::Expr;
    switch (pick(rng)) {
      case 0:
        return Expr::cmp({ColumnKind::kSequence, "sequence"},
                         coin(rng) ? CmpOp::kLt : CmpOp::kGe,
                         Value(static_cast<std::int64_t>(
                             rng() % (plan.size() + 1))));
      case 1:
        return Expr::cmp({ColumnKind::kNamed, "size"},
                         coin(rng) ? CmpOp::kLe : CmpOp::kEq,
                         Value(std::int64_t{256} << (rng() % 4)));
      case 2:
        return Expr::cmp({ColumnKind::kNamed, "op"},
                         coin(rng) ? CmpOp::kEq : CmpOp::kNe,
                         Value(coin(rng) ? "load" : "copy"));
      case 3:
        return Expr::cmp({ColumnKind::kNamed, "intensity"}, CmpOp::kGt,
                         Value(0.5 + 1.5 * (static_cast<double>(rng() % 100) /
                                            100.0)));
      case 4:
        return Expr::cmp({ColumnKind::kNamed, "time_us"}, CmpOp::kGe,
                         Value(static_cast<double>(rng() % 2048)));
      default:
        return Expr::cmp({ColumnKind::kReplicate, "replicate"}, CmpOp::kLt,
                         Value(static_cast<std::int64_t>(1 + rng() % 5)));
    }
  };
  query::ExprPtr e = leaf();
  const int extra = static_cast<int>(rng() % 3);
  for (int i = 0; i < extra; ++i) {
    query::ExprPtr other = leaf();
    e = coin(rng) ? query::Expr::logical_and(e, other)
                  : query::Expr::logical_or(e, other);
  }
  if (rng() % 4 == 0) e = query::Expr::logical_not(e);
  return e;
}

/// Evaluates the same predicate over a materialized record (the
/// reference semantics the query engine must reproduce).
bool matches(const query::Expr& e, const RawRecord& r) {
  using query::ColumnKind;
  switch (e.kind()) {
    case query::Expr::Kind::kAnd:
      return matches(*e.lhs(), r) && matches(*e.rhs(), r);
    case query::Expr::Kind::kOr:
      return matches(*e.lhs(), r) || matches(*e.rhs(), r);
    case query::Expr::Kind::kNot:
      return !matches(*e.lhs(), r);
    case query::Expr::Kind::kCmp: break;
  }
  Value v;
  if (e.column().name == "size") {
    v = r.factors[0];
  } else if (e.column().name == "op") {
    v = r.factors[1];
  } else if (e.column().name == "intensity") {
    v = r.factors[2];
  } else if (e.column().name == "time_us") {
    v = Value(r.metrics[0]);
  } else if (e.column().kind == ColumnKind::kSequence) {
    v = Value(static_cast<std::int64_t>(r.sequence));
  } else if (e.column().kind == ColumnKind::kReplicate) {
    v = Value(static_cast<std::int64_t>(r.replicate));
  } else {
    ADD_FAILURE() << "unexpected column " << e.column().name;
    return false;
  }
  return query::value_compare(v, e.op(), e.literal());
}

void write_bundle(const Plan& plan, const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  ar::BbxWriterOptions options;
  options.shards = 3;
  options.block_records = 23;  // many short blocks -> real pruning odds
  ar::BbxWriter sink(dir.string(), options);
  make_engine().run(plan, noisy_measure, sink);
}

TEST(QueryProperty, AggregatesMatchMaterializePathAtAnyWorkerCount) {
  std::mt19937_64 rng(20260726);
  const auto dir =
      std::filesystem::temp_directory_path() / "calipers_query_property";
  for (int trial = 0; trial < 10; ++trial) {
    const Plan plan = random_plan(rng);
    write_bundle(plan, dir);
    const RawTable reference = make_engine().run(plan, noisy_measure);
    const ar::BbxReader reader(dir.string());
    const query::BundleQuery bundle(reader);

    query::QuerySpec spec;
    spec.where = random_predicate(rng, plan);
    spec.group_by = (trial % 3 == 0) ? std::vector<std::string>{"size"}
                                     : std::vector<std::string>{"size", "op"};
    spec.aggregates = {query::Aggregate{query::AggKind::kCount, ""},
                       *query::parse_aggregate("mean:time_us"),
                       *query::parse_aggregate("sd:time_us"),
                       *query::parse_aggregate("min:time_us"),
                       *query::parse_aggregate("max:time_us")};

    // Reference: materialize everything, filter by the same predicate,
    // group with stats::group_metric.
    const RawTable filtered = reference.filter_records(
        [&](const RawRecord& r) { return matches(*spec.where, r); });
    const auto groups =
        stats::group_metric(filtered, spec.group_by, "time_us");

    std::string csv_at_1;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      core::WorkerPool pool(workers, "query-prop");
      const query::QueryResult result =
          bundle.aggregate(spec, workers > 1 ? &pool : nullptr);

      ASSERT_EQ(result.rows.size(), groups.size())
          << "trial " << trial << " predicate "
          << spec.where->to_string();
      for (std::size_t g = 0; g < groups.size(); ++g) {
        const auto& xs = groups[g].samples;
        ASSERT_EQ(result.rows[g].key, groups[g].key);
        EXPECT_EQ(result.rows[g].values[0],
                  static_cast<double>(xs.size()));
        const double m = stats::mean(xs);
        EXPECT_NEAR(result.rows[g].values[1], m,
                    1e-12 * std::max(1.0, std::abs(m)));
        EXPECT_NEAR(result.rows[g].values[2], stats::stddev(xs),
                    1e-9 * std::max(1.0, stats::stddev(xs)));
        EXPECT_EQ(result.rows[g].values[3], stats::min_value(xs));
        EXPECT_EQ(result.rows[g].values[4], stats::max_value(xs));
      }

      // Byte identity of the aggregate CSV across worker counts.
      std::ostringstream csv;
      result.write_csv(csv);
      if (workers == 1) {
        csv_at_1 = csv.str();
      } else {
        EXPECT_EQ(csv.str(), csv_at_1)
            << "aggregate CSV diverged at " << workers << " workers";
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(QueryProperty, ZoneMapsPruneWithoutDivergence) {
  std::mt19937_64 rng(8675309);
  const auto dir =
      std::filesystem::temp_directory_path() / "calipers_query_zones";
  std::size_t trials_with_pruning = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Plan plan = random_plan(rng);
    write_bundle(plan, dir);

    // A selective sequence slice: zone maps must prune most blocks.
    query::QuerySpec spec;
    const std::size_t cutoff = std::max<std::size_t>(plan.size() / 10, 1);
    spec.where = query::Expr::cmp(
        {query::ColumnKind::kSequence, "sequence"}, query::CmpOp::kLt,
        Value(static_cast<std::int64_t>(cutoff)));
    spec.group_by = {"op"};
    spec.aggregates = {query::Aggregate{query::AggKind::kCount, ""},
                       *query::parse_aggregate("mean:time_us")};

    const ar::BbxReader reader(dir.string());
    const query::QueryResult pruned =
        query::BundleQuery(reader).aggregate(spec);
    if (pruned.scan.blocks_pruned > 0) ++trials_with_pruning;
    EXPECT_EQ(pruned.scan.blocks_pruned + pruned.scan.blocks_scanned,
              pruned.scan.blocks_total);

    // Strip the zone maps (a PR-4-era manifest) and re-run: no pruning,
    // byte-identical aggregate CSV.
    ar::Manifest m = ar::Manifest::load(dir.string());
    m.version = 1;
    m.zones.clear();
    {
      std::ofstream out(dir / ar::Manifest::file_name(),
                        std::ios::binary | std::ios::trunc);
      m.write(out);
    }
    const ar::BbxReader v1_reader(dir.string());
    const query::QueryResult unpruned =
        query::BundleQuery(v1_reader).aggregate(spec);
    EXPECT_EQ(unpruned.scan.blocks_pruned, 0u);
    EXPECT_EQ(unpruned.scan.blocks_scanned, unpruned.scan.blocks_total);

    std::ostringstream a, b;
    pruned.write_csv(a);
    unpruned.write_csv(b);
    EXPECT_EQ(a.str(), b.str()) << "pruning changed results, trial "
                                << trial;
  }
  // Blocks hold 23 plan-ordered records; a 10% sequence slice must have
  // pruned blocks in every trial, but assert weakly (>= 6/8) so one
  // pathological plan cannot flake the suite.
  EXPECT_GE(trials_with_pruning, 6u);
  std::filesystem::remove_all(dir);
}

// An int factor compared against a *real* literal must follow
// value_compare exactly: the stored level widens to double, the literal
// is never truncated to int64.  The levels here sit where that
// distinction is observable -- 2^53 and 2^53 + 1 widen to the same
// double, and small ints straddle fractional bounds like 2.5.  Each
// predicate runs both through the encoded-domain evaluator (plain int
// column) and through the decoded cmp_mask path (forced by AND-ing a
// mixed-kind factor the encoded evaluator refuses), at every dispatch
// level this machine supports.
TEST(QueryProperty, IntFactorRealLiteralBoundariesMatchValueCompare) {
  const std::int64_t big = std::int64_t{1} << 53;  // 9007199254740992
  DesignBuilder builder(7);
  builder.add(Factor::levels(
      "n", {Value(big), Value(big + 1), Value(big + 3), Value(std::int64_t{2}),
            Value(std::int64_t{3})}));
  builder.add(Factor::levels("mix", {Value(std::int64_t{1}), Value("x")}));
  const Plan plan = builder.replications(5).randomize(true).build();

  Engine::Options eopts;
  eopts.seed = 99;
  const auto measure = [](const PlannedRun&, MeasureContext&) {
    return MeasureResult{{1.0}, 0.0};
  };
  const RawTable reference = Engine({"m"}, eopts).run(plan, measure);

  const auto dir =
      std::filesystem::temp_directory_path() / "calipers_query_boundary";
  std::filesystem::remove_all(dir);
  ar::BbxWriterOptions wopts;
  wopts.shards = 2;
  wopts.block_records = 7;
  {
    ar::BbxWriter sink(dir.string(), wopts);
    Engine({"m"}, eopts).run(plan, measure, sink);
  }
  const ar::BbxReader reader(dir.string());
  const query::BundleQuery bundle(reader);

  struct Case {
    query::CmpOp op;
    double literal;
  };
  const Case cases[] = {
      {query::CmpOp::kEq, 9007199254740993.0},  // rounds to (double)big
      {query::CmpOp::kEq, static_cast<double>(big)},
      {query::CmpOp::kNe, static_cast<double>(big)},
      {query::CmpOp::kGe, 2.5},  // truncating to 2 would admit level 2
      {query::CmpOp::kLt, 2.5},
      {query::CmpOp::kLe, 9007199254740992.5},
      {query::CmpOp::kGt, static_cast<double>(big)},
  };

  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::best_supported() != simd::Level::kScalar) {
    levels.push_back(simd::best_supported());
  }
  const simd::Level before = simd::active_level();
  for (const simd::Level level : levels) {
    simd::set_level(level);
    for (const Case& c : cases) {
      const Value literal(c.literal);
      std::size_t expected = 0;
      for (const RawRecord& r : reference.records()) {
        if (query::value_compare(r.factors[0], c.op, literal)) ++expected;
      }
      const query::ExprPtr base =
          query::Expr::cmp({query::ColumnKind::kNamed, "n"}, c.op, literal);
      // "mix != zzz" is true for every record (kind mismatch admits only
      // kNe), but its mixed-kind column defeats encoded evaluation, so
      // the whole block falls back to the decoded predicate path.
      const query::ExprPtr decoded_route = query::Expr::logical_and(
          query::Expr::cmp({query::ColumnKind::kNamed, "mix"},
                           query::CmpOp::kNe, Value("zzz")),
          query::Expr::cmp({query::ColumnKind::kNamed, "n"}, c.op, literal));
      EXPECT_EQ(bundle.materialize(base).size(), expected)
          << "encoded path, op " << static_cast<int>(c.op) << " literal "
          << c.literal << " level " << simd::to_string(level);
      EXPECT_EQ(bundle.materialize(decoded_route).size(), expected)
          << "decoded path, op " << static_cast<int>(c.op) << " literal "
          << c.literal << " level " << simd::to_string(level);
    }
  }
  simd::set_level(before);
  std::filesystem::remove_all(dir);
}

MeasureResult nan_bearing_measure(const PlannedRun& run, MeasureContext& ctx) {
  MeasureResult r = noisy_measure(run, ctx);
  // Sprinkle NaN into the second metric: aggregates and CSV output over
  // it must still be byte-identical across dispatch levels.
  if (run.run_index % 13 == 5) {
    r.metrics[1] = std::numeric_limits<double>::quiet_NaN();
  }
  return r;
}

// The SIMD dispatch matrix: every (level, worker-count) combination must
// produce byte-identical aggregate and materialize CSVs for randomized
// plans and predicates, including NaN-bearing metric columns.
TEST(QueryProperty, DispatchLevelsProduceByteIdenticalResults) {
  std::vector<simd::Level> levels;
  for (const simd::Level l : {simd::Level::kScalar, simd::Level::kAvx2}) {
    if (l <= simd::best_supported()) levels.push_back(l);
  }
  const simd::Level before = simd::active_level();
  std::mt19937_64 rng(424242);
  const auto dir =
      std::filesystem::temp_directory_path() / "calipers_query_dispatch";
  for (int trial = 0; trial < 4; ++trial) {
    const Plan plan = random_plan(rng);
    std::filesystem::remove_all(dir);
    ar::BbxWriterOptions wopts;
    wopts.shards = 3;
    wopts.block_records = 23;
    {
      ar::BbxWriter sink(dir.string(), wopts);
      make_engine().run(plan, nan_bearing_measure, sink);
    }

    query::QuerySpec spec;
    spec.where = random_predicate(rng, plan);
    spec.group_by = {"size", "op"};
    spec.aggregates = {query::Aggregate{query::AggKind::kCount, ""},
                       *query::parse_aggregate("mean:time_us"),
                       *query::parse_aggregate("mean:inv"),
                       *query::parse_aggregate("sd:inv"),
                       *query::parse_aggregate("min:inv"),
                       *query::parse_aggregate("max:inv")};

    const ar::BbxReader reader(dir.string());
    const query::BundleQuery bundle(reader);

    std::string agg_base, mat_base;
    for (const simd::Level level : levels) {
      simd::set_level(level);
      for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                        std::size_t{8}}) {
        core::WorkerPool pool(workers, "query-disp");
        core::WorkerPool* p = workers > 1 ? &pool : nullptr;
        std::ostringstream agg, mat;
        bundle.aggregate(spec, p).write_csv(agg);
        bundle.materialize(spec.where, {}, p).write_csv(mat);
        if (agg_base.empty()) {
          agg_base = agg.str();
          mat_base = mat.str();
        } else {
          EXPECT_EQ(agg.str(), agg_base)
              << "aggregate CSV diverged: trial " << trial << " level "
              << simd::to_string(level) << " workers " << workers
              << " predicate " << spec.where->to_string();
          EXPECT_EQ(mat.str(), mat_base)
              << "materialize CSV diverged: trial " << trial << " level "
              << simd::to_string(level) << " workers " << workers
              << " predicate " << spec.where->to_string();
        }
      }
    }
    simd::set_level(before);
  }
  simd::set_level(before);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cal
