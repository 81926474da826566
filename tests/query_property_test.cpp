// Randomized query-engine harness: for random plans (including a
// mixed-kind factor with int/real cross-kind levels and a real factor
// with +-0.0 levels), random predicates (including cross-kind and
// int/real boundary literals), one to four group columns, every block
// source -- direct, and cached under an evicting budget and with
// retention off -- every SIMD level and worker counts {1, 2, 8},
// BundleQuery's aggregate, materialize and group_samples must match a
// reference built from the materialized records with value_compare
// filtering and std::map grouping, and the aggregate CSV and the groups'
// keys and samples must be byte-identical to the boxed reference fold:
// per-block groups keyed by boxed std::vector<Value> in a hash map,
// merged in plan order -- the engine's packed-key fold must make the
// same groups, additions and keys.  A second
// harness drives selective zone-map predicates and asserts real pruning
// with zero result divergence against the zone-less (version-1) manifest.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/worker_pool.hpp"
#include "io/archive/bbx_reader.hpp"
#include "io/archive/bbx_writer.hpp"
#include "query/engine.hpp"
#include "serve/block_cache.hpp"
#include "serve/cached_source.hpp"
#include "simd/dispatch.hpp"
#include "stats/descriptive.hpp"
#include "stats/group.hpp"

namespace cal {
namespace {

namespace ar = io::archive;

constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;

Plan random_plan(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> reps(3, 10);
  std::uniform_int_distribution<int> sizes(2, 4);
  DesignBuilder builder(rng());
  // Sizes straddle the int64 -> double boundary: 2^53 and 2^53 + 1
  // widen to the same double.
  std::vector<Value> size_levels = {Value(kTwo53), Value(kTwo53 + 1)};
  for (int i = 0, n = sizes(rng); i < n; ++i) {
    size_levels.push_back(Value(std::int64_t{256} << i));
  }
  builder.add(Factor::levels("size", size_levels));
  builder.add(Factor::levels("op", {Value("load"), Value("store"),
                                    Value("copy")}));
  builder.add(Factor::log_uniform_real("intensity", 0.5, 2.0));
  // Ints, reals and strings in the same blocks: a mixed-kind column
  // whose int 1 and real 1.0 are one group key.
  builder.add(Factor::levels("mix", {Value(std::int64_t{1}), Value(1.0),
                                     Value(std::int64_t{7}), Value("x"),
                                     Value("y")}));
  // An all-real column whose -0.0 and +0.0 are one group key.
  builder.add(Factor::levels("real", {Value(-0.0), Value(0.0), Value(2.5)}));
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

/// A measurement that reads no factor: any plan's runs.
MeasureResult noisy_measure_any(const PlannedRun& run, MeasureContext& ctx) {
  const double value = static_cast<double>(1 + run.run_index % 17) *
                       ctx.rng->lognormal_factor(0.25);
  return MeasureResult{{value, 1.0 / value}, value * 1e-8};
}

Engine make_engine() {
  Engine::Options options;
  options.seed = 4321;
  return Engine({"time_us", "inv"}, options);
}

/// A random predicate drawing on every column class the grammar knows,
/// with cross-kind literals (string vs numeric columns, numeric vs the
/// string factor) and int-factor-vs-real-literal boundaries.
query::ExprPtr random_predicate(std::mt19937_64& rng, const Plan& plan) {
  std::uniform_int_distribution<int> pick(0, 12);
  std::uniform_int_distribution<int> coin(0, 1);
  const query::CmpOp ops[] = {query::CmpOp::kEq, query::CmpOp::kNe,
                              query::CmpOp::kLt, query::CmpOp::kLe,
                              query::CmpOp::kGt, query::CmpOp::kGe};
  const auto any_op = [&] { return ops[rng() % 6]; };
  const auto leaf = [&]() -> query::ExprPtr {
    using query::CmpOp;
    using query::ColumnKind;
    using query::Expr;
    const query::ColumnRef size{ColumnKind::kNamed, "size"};
    switch (pick(rng)) {
      case 0:
        return Expr::cmp({ColumnKind::kSequence, "sequence"},
                         coin(rng) ? CmpOp::kLt : CmpOp::kGe,
                         Value(static_cast<std::int64_t>(
                             rng() % (plan.size() + 1))));
      case 1:
        return Expr::cmp(size, coin(rng) ? CmpOp::kLe : CmpOp::kEq,
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
      case 5:
        return Expr::cmp({ColumnKind::kReplicate, "replicate"}, CmpOp::kLt,
                         Value(static_cast<std::int64_t>(1 + rng() % 5)));
      case 6:  // string literal on an int or real factor (only != holds)
        return Expr::cmp(coin(rng) ? size
                                   : query::ColumnRef{ColumnKind::kNamed,
                                                      "intensity"},
                         coin(rng) ? CmpOp::kNe : any_op(),
                         Value(coin(rng) ? "1024" : "zzz"));
      case 7:  // int literal on the string factor
        return Expr::cmp({ColumnKind::kNamed, "op"}, any_op(),
                         Value(std::int64_t{1}));
      case 8:  // int literal on the real factor
        return Expr::cmp({ColumnKind::kNamed, "intensity"}, any_op(),
                         Value(std::int64_t{1}));
      case 9: {  // real literal on an int factor, at the 2^53 boundary
        const double literals[] = {9007199254740992.0, 9007199254740993.0,
                                   2.5, 512.5};
        return Expr::cmp(size, any_op(), Value(literals[rng() % 4]));
      }
      case 10:  // int literal on the mixed-kind factor
        return Expr::cmp({ColumnKind::kNamed, "mix"}, any_op(),
                         Value(std::int64_t{coin(rng) ? 1 : 7}));
      case 11:  // string literal on the mixed-kind factor
        return Expr::cmp({ColumnKind::kNamed, "mix"}, any_op(),
                         Value(coin(rng) ? "x" : "y"));
      default:  // real literal on the mixed-kind factor
        return Expr::cmp({ColumnKind::kNamed, "mix"}, any_op(), Value(4.5));
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
  } else if (e.column().name == "mix") {
    v = r.factors[3];
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

/// The SIMD levels this machine can run: scalar and the best one.
std::vector<simd::Level> dispatch_levels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::best_supported() != simd::Level::kScalar) {
    levels.push_back(simd::best_supported());
  }
  return levels;
}

/// The block sources every trial runs through: direct decode, and the
/// serving layer's cache under an evicting budget and with retention
/// off.  Caches persist across a trial's calls, so later calls mix
/// hits, misses and evictions.
struct Sources {
  explicit Sources(const ar::BbxReader& reader)
      : evicting_cache(options(2048)),
        unretained_cache(options(0)),
        direct(reader),
        evicting(reader, &evicting_cache, 0),
        unretained(reader, &unretained_cache, 0) {}

  static serve::BlockCache::Options options(std::size_t budget) {
    serve::BlockCache::Options o;
    o.byte_budget = budget;
    return o;
  }

  std::vector<std::pair<const char*, const query::BlockSource*>> all() const {
    return {{"direct", &direct},
            {"cached-evicting", &evicting},
            {"cached-unretained", &unretained}};
  }

  serve::BlockCache evicting_cache, unretained_cache;
  query::DirectBlockSource direct;
  serve::CachingBlockSource evicting, unretained;
};

/// One group of the boxed reference fold: count, the MetricAcc
/// recurrences (sum, extrema, Welford) and the samples with their
/// sequence numbers.
struct BoxedGroup {
  std::vector<Value> key;
  std::size_t rows = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  stats::Welford welford;
  std::vector<double> samples;
  std::vector<std::size_t> sequence;

  void add(double x, std::size_t seq) {
    ++rows;
    sum += x;
    min = std::min(min, x);
    max = std::max(max, x);
    welford.add(x);
    samples.push_back(x);
    sequence.push_back(seq);
  }

  void merge(const BoxedGroup& other) {
    rows += other.rows;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    welford.merge(other.welford);
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    sequence.insert(sequence.end(), other.sequence.begin(),
                    other.sequence.end());
  }
};

/// First-appearance groups keyed by boxed Value tuples in a hash map.
struct BoxedGroups {
  std::unordered_map<std::vector<Value>, std::size_t, ValueHash> index;
  std::vector<BoxedGroup> groups;

  BoxedGroup& slot(const std::vector<Value>& key) {
    const auto [it, added] = index.try_emplace(key, groups.size());
    if (added) groups.emplace_back().key = key;
    return groups[it->second];
  }
};

/// The group-by fold the engine ran before packed keys, over the
/// materialized records: each bundle block (manifest order, which is
/// plan order) folds its matching records into boxed-key groups, the
/// blocks' groups merge in plan order, and the result sorts by key with
/// Value ordering.  `records` is the full table in sequence order.
std::vector<BoxedGroup> boxed_fold(const RawTable& records,
                                   const ar::Manifest& manifest,
                                   const query::Expr* where,
                                   const std::vector<std::string>& group_by,
                                   std::size_t metric) {
  BoxedGroups merged;
  std::size_t next = 0;
  for (const ar::BlockInfo& block : manifest.blocks) {
    BoxedGroups partial;
    for (std::size_t i = next; i < next + block.records; ++i) {
      const RawRecord& r = records.records()[i];
      if (where && !matches(*where, r)) continue;
      std::vector<Value> key;
      for (const std::string& name : group_by) {
        key.push_back(r.factors[records.factor_index(name)]);
      }
      partial.slot(key).add(r.metrics[metric], r.sequence);
    }
    next += block.records;
    for (const BoxedGroup& group : partial.groups) {
      merged.slot(group.key).merge(group);
    }
  }
  EXPECT_EQ(next, records.size()) << "blocks do not tile the table";
  std::vector<BoxedGroup> out = std::move(merged.groups);
  std::sort(out.begin(), out.end(),
            [](const BoxedGroup& a, const BoxedGroup& b) {
              return a.key < b.key;
            });
  return out;
}

/// The boxed fold's aggregate CSV for count, mean, sd, min, max.
std::string boxed_aggregate_csv(const std::vector<BoxedGroup>& groups,
                                const query::QuerySpec& spec) {
  query::QueryResult result;
  result.group_names = spec.group_by;
  for (const query::Aggregate& agg : spec.aggregates) {
    result.value_names.push_back(agg.label());
  }
  for (const BoxedGroup& g : groups) {
    result.rows.push_back({g.key,
                           {static_cast<double>(g.rows), g.welford.mean(),
                            g.welford.stddev(), g.min, g.max}});
  }
  std::ostringstream csv;
  result.write_csv(csv);
  return csv.str();
}

/// Keys as text, kinds included: Value == alone would take int 1 for
/// real 1.0 and -0.0 for +0.0.
std::string key_text(const std::vector<Value>& key) {
  std::string out;
  for (const Value& v : key) {
    out += std::to_string(static_cast<int>(v.kind())) + ":" + v.to_string();
    out += ";";
  }
  return out;
}

/// group_samples against the boxed fold: same groups in the same order,
/// same keys (kind and text), same samples and sequence numbers.
void expect_samples_match_boxed(const std::vector<stats::Group>& samples,
                                const std::vector<BoxedGroup>& boxed,
                                const std::string& where) {
  ASSERT_EQ(samples.size(), boxed.size()) << where;
  for (std::size_t g = 0; g < boxed.size(); ++g) {
    EXPECT_EQ(key_text(samples[g].key), key_text(boxed[g].key)) << where;
    EXPECT_EQ(samples[g].samples.size(), boxed[g].samples.size()) << where;
    for (std::size_t i = 0; i < boxed[g].samples.size() &&
                            i < samples[g].samples.size();
         ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(samples[g].samples[i]),
                std::bit_cast<std::uint64_t>(boxed[g].samples[i]))
          << where;
    }
    EXPECT_EQ(samples[g].sequence, boxed[g].sequence) << where;
  }
}

TEST(QueryProperty, EveryPathMatchesValueCompareAndMapGrouping) {
  std::mt19937_64 rng(20260726);
  const auto dir =
      std::filesystem::temp_directory_path() / "calipers_query_property";
  const std::vector<std::vector<std::string>> group_bys = {
      {"size"},        {"size", "op"},          {"mix"},
      {"op", "mix"},   {"real"},                {"mix", "real", "op"},
      {"real", "size"}, {"size", "op", "mix", "real"}};
  const simd::Level before = simd::active_level();
  for (int trial = 0; trial < 24; ++trial) {
    const Plan plan = random_plan(rng);
    write_bundle(plan, dir);
    const RawTable reference = make_engine().run(plan, noisy_measure);
    const ar::BbxReader reader(dir.string());
    const Sources sources(reader);

    query::QuerySpec spec;
    spec.where = random_predicate(rng, plan);
    spec.group_by = group_bys[trial % group_bys.size()];
    spec.aggregates = {query::Aggregate{query::AggKind::kCount, ""},
                       *query::parse_aggregate("mean:time_us"),
                       *query::parse_aggregate("sd:time_us"),
                       *query::parse_aggregate("min:time_us"),
                       *query::parse_aggregate("max:time_us")};

    // Reference: filter the materialized records through value_compare,
    // group their samples in a std::map (Value ordering, sequence order
    // within a group).
    const RawTable filtered = reference.filter_records(
        [&](const RawRecord& r) { return matches(*spec.where, r); });
    std::map<std::vector<Value>, std::vector<double>> groups;
    for (const RawRecord& r : filtered.records()) {
      std::vector<Value> key;
      for (const std::string& name : spec.group_by) {
        key.push_back(r.factors[filtered.factor_index(name)]);
      }
      groups[key].push_back(r.metrics[0]);
    }
    std::ostringstream filtered_csv;
    filtered.write_csv(filtered_csv);
    const std::vector<BoxedGroup> boxed = boxed_fold(
        reference, reader.manifest(), spec.where.get(), spec.group_by, 0);
    const std::string boxed_csv = boxed_aggregate_csv(boxed, spec);

    std::string agg_base;
    for (const simd::Level level : dispatch_levels()) {
      simd::set_level(level);
      for (const auto& [source_name, source] : sources.all()) {
        const query::BundleQuery bundle(reader, source);
        for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                          std::size_t{8}}) {
          core::WorkerPool pool(workers, "query-prop");
          core::WorkerPool* p = workers > 1 ? &pool : nullptr;
          const std::string where = std::string(source_name) + " level " +
                                    simd::to_string(level) + " workers " +
                                    std::to_string(workers) + " trial " +
                                    std::to_string(trial) + " predicate " +
                                    spec.where->to_string();

          const query::QueryResult result = bundle.aggregate(spec, p);
          ASSERT_EQ(result.rows.size(), groups.size()) << where;
          auto g = groups.begin();
          for (std::size_t row = 0; row < groups.size(); ++row, ++g) {
            const std::vector<double>& xs = g->second;
            ASSERT_EQ(result.rows[row].key, g->first) << where;
            EXPECT_EQ(result.rows[row].values[0],
                      static_cast<double>(xs.size()))
                << where;
            const double m = stats::mean(xs);
            EXPECT_NEAR(result.rows[row].values[1], m,
                        1e-12 * std::max(1.0, std::abs(m)))
                << where;
            EXPECT_NEAR(result.rows[row].values[2], stats::stddev(xs),
                        1e-9 * std::max(1.0, stats::stddev(xs)))
                << where;
            EXPECT_EQ(result.rows[row].values[3], stats::min_value(xs))
                << where;
            EXPECT_EQ(result.rows[row].values[4], stats::max_value(xs))
                << where;
          }
          std::ostringstream csv;
          result.write_csv(csv);
          if (agg_base.empty()) agg_base = csv.str();
          EXPECT_EQ(csv.str(), agg_base) << "aggregate CSV diverged: "
                                         << where;
          EXPECT_EQ(csv.str(), boxed_csv)
              << "aggregate CSV differs from the boxed fold: " << where;
          for (std::size_t row = 0; row < boxed.size(); ++row) {
            EXPECT_EQ(key_text(result.rows[row].key), key_text(boxed[row].key))
                << where;
          }

          std::ostringstream mat;
          bundle.materialize(spec.where, {}, p).write_csv(mat);
          EXPECT_EQ(mat.str(), filtered_csv.str())
              << "materialize diverged: " << where;

          const std::vector<stats::Group> samples =
              bundle.group_samples(spec.where, spec.group_by, "time_us", p);
          ASSERT_EQ(samples.size(), groups.size()) << where;
          g = groups.begin();
          for (std::size_t row = 0; row < groups.size(); ++row, ++g) {
            EXPECT_EQ(samples[row].key, g->first) << where;
            EXPECT_EQ(samples[row].samples, g->second) << where;
          }
          expect_samples_match_boxed(samples, boxed, where);
        }
      }
    }
    // The cached sources really took their eviction / no-retention paths.
    EXPECT_GT(sources.evicting_cache.stats().evictions, 0u);
    EXPECT_GT(sources.unretained_cache.stats().rejected, 0u);
    EXPECT_EQ(sources.unretained_cache.stats().entries, 0u);
  }
  simd::set_level(before);
  std::filesystem::remove_all(dir);
}

// NaN group keys keep the boxed fold's behaviour: NaN != NaN, so every
// NaN record opens a group of its own, and the key sort -- which has no
// strict weak order over NaN -- sees the groups in the same plan-order
// sequence the boxed fold produced, so it places them the same way.
TEST(QueryProperty, NaNFactorLevelsKeepTheBoxedFoldsGroups) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  DesignBuilder builder(11);
  builder.add(Factor::levels("r", {Value(nan), Value(1.0), Value(-0.0),
                                   Value(0.0), Value(-nan)}));
  builder.add(Factor::levels("op", {Value("load"), Value("store")}));
  const Plan plan = builder.replications(4).randomize(true).build();
  const auto dir =
      std::filesystem::temp_directory_path() / "calipers_query_nan_keys";
  std::filesystem::remove_all(dir);
  ar::BbxWriterOptions wopts;
  wopts.shards = 2;
  wopts.block_records = 9;
  {
    ar::BbxWriter sink(dir.string(), wopts);
    make_engine().run(plan, noisy_measure_any, sink);
  }
  const RawTable reference = make_engine().run(plan, noisy_measure_any);
  const ar::BbxReader reader(dir.string());
  const query::BundleQuery bundle(reader);
  for (const std::vector<std::string>& group_by :
       {std::vector<std::string>{"r"}, std::vector<std::string>{"op", "r"}}) {
    query::QuerySpec spec;
    spec.group_by = group_by;
    spec.aggregates = {query::Aggregate{query::AggKind::kCount, ""},
                       *query::parse_aggregate("mean:time_us"),
                       *query::parse_aggregate("sd:time_us"),
                       *query::parse_aggregate("min:time_us"),
                       *query::parse_aggregate("max:time_us")};
    const std::vector<BoxedGroup> boxed =
        boxed_fold(reference, reader.manifest(), nullptr, group_by, 0);
    // One group per NaN record: 2 NaN levels x 2 ops x 4 replicates.
    std::size_t nan_groups = 0;
    for (const BoxedGroup& g : boxed) {
      if (g.key.back().is_real() && std::isnan(g.key.back().as_real())) {
        EXPECT_EQ(g.rows, 1u);
        ++nan_groups;
      }
    }
    EXPECT_EQ(nan_groups, 2u * 2u * 4u);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
      core::WorkerPool pool(workers, "query-nan");
      core::WorkerPool* p = workers > 1 ? &pool : nullptr;
      const std::string where =
          "group by " + group_by.back() + " workers " + std::to_string(workers);
      std::ostringstream csv;
      bundle.aggregate(spec, p).write_csv(csv);
      EXPECT_EQ(csv.str(), boxed_aggregate_csv(boxed, spec)) << where;
      expect_samples_match_boxed(
          bundle.group_samples(nullptr, group_by, "time_us", p), boxed, where);
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
// predicate runs alone and AND-ed with a leaf on a mixed-kind factor
// (always true, but its coded column sits beside the i64 one), through
// both the direct and the caching block source, at every dispatch
// level this machine supports.
TEST(QueryProperty, IntFactorRealLiteralBoundariesMatchValueCompare) {
  const std::int64_t big = kTwo53;  // 9007199254740992
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
  const Sources sources(reader);

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

  const simd::Level before = simd::active_level();
  for (const simd::Level level : dispatch_levels()) {
    simd::set_level(level);
    for (const Case& c : cases) {
      const Value literal(c.literal);
      std::size_t expected = 0;
      for (const RawRecord& r : reference.records()) {
        if (query::value_compare(r.factors[0], c.op, literal)) ++expected;
      }
      const query::ExprPtr base =
          query::Expr::cmp({query::ColumnKind::kNamed, "n"}, c.op, literal);
      // "mix != zzz" is true for every record (a kind mismatch admits
      // only kNe, and "x" != "zzz").
      const query::ExprPtr with_mixed = query::Expr::logical_and(
          query::Expr::cmp({query::ColumnKind::kNamed, "mix"},
                           query::CmpOp::kNe, Value("zzz")),
          base);
      for (const auto& [source_name, source] : sources.all()) {
        const query::BundleQuery bundle(reader, source);
        for (const auto& [label, expr] :
             {std::pair{"alone", base}, std::pair{"with mixed", with_mixed}}) {
          EXPECT_EQ(bundle.materialize(expr).size(), expected)
              << source_name << ", " << label << ", op "
              << static_cast<int>(c.op) << " literal " << c.literal
              << " level " << simd::to_string(level);
        }
      }
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
  const std::vector<simd::Level> levels = dispatch_levels();
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
