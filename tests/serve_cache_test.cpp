// BlockCache + CachingBlockSource unit suite: LRU hit/miss/evict under
// byte pressure, the single-flight coalescing protocol (no double
// decode, abandoned owners wake waiters), the disabled-cache identity
// guarantee, zone-map-aware admission (pruned blocks never admitted),
// and a multi-thread stress run.  Runs in the sanitize CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/worker_pool.hpp"
#include "io/archive/bbx_reader.hpp"
#include "io/archive/bbx_writer.hpp"
#include "query/engine.hpp"
#include "serve/block_cache.hpp"
#include "serve/cached_source.hpp"

namespace cal {
namespace {

namespace ar = io::archive;
using serve::BlockCache;
using serve::CachedColumn;

/// A resolved column of `n` doubles (8n accounting bytes).
std::shared_ptr<const CachedColumn> real_column(std::size_t n,
                                                double fill = 1.0) {
  auto col = std::make_shared<CachedColumn>();
  col->f64.assign(n, fill);
  return col;
}

BlockCache::Key key_of(std::uint32_t block, std::uint32_t column = 0) {
  return BlockCache::Key{0, block, column};
}

TEST(BlockCache, HitMissAndLruRefreshUnderBytePressure) {
  BlockCache::Options options;
  options.byte_budget = 3 * 80;  // room for three 10-double columns
  BlockCache cache(options);

  for (std::uint32_t b = 0; b < 3; ++b) {
    bool owner = false;
    EXPECT_EQ(cache.get_or_begin(key_of(b), &owner), nullptr);
    EXPECT_TRUE(owner);
    cache.insert(key_of(b), real_column(10, b));
  }
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().bytes, 240u);

  // Refresh block 0 (now MRU), then overflow: block 1 is LRU and must
  // be the eviction victim.
  EXPECT_NE(cache.get(key_of(0)), nullptr);
  cache.insert(key_of(3), real_column(10, 3.0));
  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.get(key_of(1)), nullptr);  // evicted
  EXPECT_NE(cache.get(key_of(0)), nullptr);  // survived via refresh
  EXPECT_NE(cache.get(key_of(2)), nullptr);
  EXPECT_NE(cache.get(key_of(3)), nullptr);
  EXPECT_LE(cache.stats().bytes, options.byte_budget);
}

TEST(BlockCache, EntryWiderThanBudgetServesWaitersButIsNotRetained) {
  BlockCache::Options options;
  options.byte_budget = 100;
  BlockCache cache(options);

  bool owner = false;
  cache.get_or_begin(key_of(7), &owner);
  ASSERT_TRUE(owner);

  // A follower runs the full wait-or-retry protocol: a parked wait()
  // receives the value directly; a late arrival sees the (unretained,
  // already dropped) key as absent, retries, and owns the decode
  // itself.  Either way it must end up with a value.
  std::shared_ptr<const CachedColumn> seen;
  std::thread waiter([&] {
    seen = cache.wait(key_of(7));
    while (seen == nullptr) {
      bool late_owner = false;
      seen = cache.get_or_begin(key_of(7), &late_owner);
      if (seen != nullptr) break;
      if (late_owner) {
        seen = real_column(1000);
        cache.insert(key_of(7), seen);
      } else {
        seen = cache.wait(key_of(7));
      }
    }
  });
  cache.insert(key_of(7), real_column(1000));  // 8000 bytes > budget
  waiter.join();

  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->f64.size(), 1000u);
  const BlockCache::Stats stats = cache.stats();
  EXPECT_GE(stats.rejected, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(cache.get(key_of(7)), nullptr);  // not retained
}

TEST(BlockCache, OverBudgetInsertsNeverChargeTheBudget) {
  // Regression: an over-budget insert must leave no accounting residue
  // behind -- bytes uncharged, nothing on the LRU list for shrink to
  // spin on -- and later retained inserts must keep evicting normally.
  BlockCache::Options options;
  options.byte_budget = 2 * 80;  // room for two 10-double columns
  BlockCache cache(options);

  bool owner = false;
  cache.get_or_begin(key_of(1), &owner);
  cache.insert(key_of(1), real_column(10));    // retained, 80 bytes
  cache.get_or_begin(key_of(2), &owner);
  cache.insert(key_of(2), real_column(1000));  // 8000 bytes: rejected
  cache.get_or_begin(key_of(3), &owner);
  cache.insert(key_of(3), real_column(10));    // retained
  cache.get_or_begin(key_of(4), &owner);
  cache.insert(key_of(4), real_column(10));    // retained, evicts key 1

  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 4u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 160u);
  EXPECT_EQ(cache.get(key_of(1)), nullptr);  // evicted
  EXPECT_EQ(cache.get(key_of(2)), nullptr);  // never retained
  EXPECT_NE(cache.get(key_of(3)), nullptr);
  EXPECT_NE(cache.get(key_of(4)), nullptr);
}

TEST(BlockCache, ZeroBudgetRetainsNothingIncludingZeroByteColumns) {
  // byte_budget = 0 documents "retention disabled"; a zero-byte column
  // (a zero-record block's) must not slip past the budget check and
  // accumulate as immortal entries.
  BlockCache::Options options;
  options.byte_budget = 0;
  BlockCache cache(options);

  for (std::uint32_t b = 0; b < 4; ++b) {
    bool owner = false;
    cache.get_or_begin(key_of(b), &owner);
    ASSERT_TRUE(owner);
    cache.insert(key_of(b), real_column(0));  // 0 accounting bytes
  }
  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 4u);
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(cache.get(key_of(0)), nullptr);
}

TEST(BlockCache, DisabledCacheAlwaysGrantsOwnershipAndDropsInserts) {
  BlockCache::Options options;
  options.enabled = false;
  BlockCache cache(options);

  for (int round = 0; round < 2; ++round) {
    bool owner = false;
    EXPECT_EQ(cache.get_or_begin(key_of(1), &owner), nullptr);
    EXPECT_TRUE(owner);
    cache.insert(key_of(1), real_column(4));
  }
  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.inserts, 0u);
}

TEST(BlockCache, AbandonWakesWaiterWhoRetriesAndBecomesOwner) {
  BlockCache cache;
  bool owner = false;
  cache.get_or_begin(key_of(5), &owner);
  ASSERT_TRUE(owner);

  std::atomic<bool> retried_as_owner{false};
  std::thread follower([&] {
    bool follower_owner = false;
    auto hit = cache.get_or_begin(key_of(5), &follower_owner);
    EXPECT_EQ(hit, nullptr);
    EXPECT_FALSE(follower_owner);  // the main thread owns the decode
    hit = cache.wait(key_of(5));
    EXPECT_EQ(hit, nullptr);  // abandoned: retry
    hit = cache.get_or_begin(key_of(5), &follower_owner);
    if (follower_owner) {
      retried_as_owner.store(true);
      cache.insert(key_of(5), real_column(2));
    }
  });
  // Give the follower time to park in wait() before abandoning.
  while (cache.stats().coalesced == 0) std::this_thread::yield();
  cache.abandon(key_of(5));
  follower.join();

  EXPECT_TRUE(retried_as_owner.load());
  EXPECT_NE(cache.get(key_of(5)), nullptr);
  EXPECT_EQ(cache.stats().abandoned, 1u);
}

TEST(BlockCache, AbandonIsNoOpOnResolvedKeys) {
  BlockCache cache;
  bool owner = false;
  cache.get_or_begin(key_of(2), &owner);
  cache.insert(key_of(2), real_column(3));
  cache.abandon(key_of(2));  // blanket-abandon after success: no-op
  cache.abandon(key_of(9));  // absent: no-op
  EXPECT_NE(cache.get(key_of(2)), nullptr);
  EXPECT_EQ(cache.stats().abandoned, 0u);
}

TEST(BlockCache, ClearDropsRetainedEntriesButKeepsCounters) {
  BlockCache cache;
  bool owner = false;
  cache.get_or_begin(key_of(1), &owner);
  cache.insert(key_of(1), real_column(4));
  cache.clear();
  EXPECT_EQ(cache.get(key_of(1)), nullptr);
  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.inserts, 1u);  // lifetime counters survive
}

TEST(BlockCache, MultiThreadStressStaysWithinBudget) {
  BlockCache::Options options;
  options.byte_budget = 40 * 80;  // forces constant eviction churn
  BlockCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  constexpr std::uint32_t kKeys = 160;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t state = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int i = 0; i < kOps; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const auto k = key_of(static_cast<std::uint32_t>(state % kKeys));
        bool owner = false;
        auto hit = cache.get_or_begin(k, &owner);
        if (hit != nullptr) {
          EXPECT_EQ(hit->f64.size(), 10u);
          continue;
        }
        if (owner) {
          if (state % 17 == 0) {
            cache.abandon(k);  // simulated decode failure
          } else {
            cache.insert(k, real_column(10));
          }
        } else {
          hit = cache.wait(k);  // value or abandoned-null both fine
          if (hit != nullptr) EXPECT_EQ(hit->f64.size(), 10u);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const BlockCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, options.byte_budget);
  EXPECT_EQ(stats.bytes, stats.entries * 80u);
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            static_cast<std::uint64_t>(kThreads) * kOps);
}

// --- CachingBlockSource over a real bundle -------------------------------

Plan cache_plan() {
  return DesignBuilder(17)
      .add(Factor::levels("size", {Value(1024), Value(4096), Value(16384),
                                   Value(65536)}))
      .add(Factor::levels("op", {Value("load"), Value("store")}))
      .replications(6)
      .randomize(true)
      .build();
}

MeasureResult cache_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double size = run.values[0].as_real();
  const double scale = run.values[1].as_string() == "store" ? 2.0 : 1.0;
  const double value = size * scale * ctx.rng->lognormal_factor(0.1);
  return MeasureResult{{value}, value * 1e-9};
}

class CachingSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "calipers_serve_cache";
    std::filesystem::remove_all(dir_);
    Engine::Options options;
    options.seed = 23;
    const Engine engine({"time_us"}, options);
    ar::BbxWriterOptions writer_options;
    writer_options.shards = 2;
    writer_options.block_records = 5;
    ar::BbxWriter sink(dir_.string(), writer_options);
    engine.run(cache_plan(), cache_measure, sink);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  static query::QuerySpec selective_spec() {
    query::QuerySpec spec;
    // Sequence is monotone in plan order, so its zone maps genuinely
    // prune trailing blocks (a randomized factor's [min, max] cannot).
    spec.where =
        query::Expr::cmp({query::ColumnKind::kSequence, "sequence"},
                         query::CmpOp::kLt, Value(std::int64_t{12}));
    spec.group_by = {"size", "op"};
    spec.aggregates = {query::Aggregate{query::AggKind::kCount, ""},
                       *query::parse_aggregate("mean:time_us")};
    return spec;
  }

  static std::string csv_of(const query::QueryResult& result) {
    std::ostringstream out;
    result.write_csv(out);
    return out.str();
  }

  std::filesystem::path dir_;
};

TEST_F(CachingSourceTest, ByteIdenticalToDirectAtAnyCacheSizeAndWarmth) {
  const ar::BbxReader reader(dir_.string());
  const std::string direct =
      csv_of(query::BundleQuery(reader).aggregate(selective_spec()));

  serve::BlockCache::Options configs[3];
  configs[0] = {};                    // big: everything retained
  configs[1].byte_budget = 200;       // tiny: constant eviction
  configs[2].enabled = false;         // disabled: transparent
  for (auto& config : configs) {
    serve::BlockCache cache(config);
    serve::CachingBlockSource source(reader, &cache, 0);
    const query::BundleQuery engine(reader, &source);
    for (int pass = 0; pass < 3; ++pass) {  // cold, warm, warm
      EXPECT_EQ(csv_of(engine.aggregate(selective_spec())), direct);
    }
    core::WorkerPool pool(4, "serve-cache-test");
    EXPECT_EQ(csv_of(engine.aggregate(selective_spec(), &pool)), direct);
  }
}

TEST_F(CachingSourceTest, WarmScanHitsAndAdmissionSkipsPrunedBlocks) {
  const ar::BbxReader reader(dir_.string());
  serve::BlockCache cache;
  serve::CachingBlockSource source(reader, &cache, 0);
  const query::BundleQuery engine(reader, &source);

  const query::QueryResult cold = engine.aggregate(selective_spec());
  ASSERT_GT(cold.scan.blocks_pruned, 0u);
  const BlockCache::Stats after_cold = cache.stats();
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_GT(after_cold.inserts, 0u);
  // Admission is scan-driven: only scanned blocks' columns were ever
  // offered, so pruned blocks contribute no entries.  The selective
  // query needs 4 columns per scanned uncertain block (size, op,
  // time_us, predicate's size is shared) -- just bound it structurally.
  EXPECT_LE(after_cold.entries,
            cold.scan.blocks_scanned * 4);

  const query::QueryResult warm = engine.aggregate(selective_spec());
  const BlockCache::Stats after_warm = cache.stats();
  EXPECT_EQ(after_warm.misses, after_cold.misses);  // no new decodes
  EXPECT_GT(after_warm.hits, 0u);
  EXPECT_EQ(after_warm.inserts, after_cold.inserts);
  EXPECT_EQ(csv_of(warm), csv_of(cold));
}

TEST_F(CachingSourceTest, ConcurrentIdenticalScansNeverDoubleDecode) {
  const ar::BbxReader reader(dir_.string());
  serve::BlockCache cache;
  serve::CachingBlockSource source(reader, &cache, 0);
  const query::BundleQuery engine(reader, &source);
  const std::string expected =
      csv_of(query::BundleQuery(reader).aggregate(selective_spec()));

  constexpr int kScanners = 6;
  std::vector<std::string> results(kScanners);
  std::vector<std::thread> threads;
  threads.reserve(kScanners);
  for (int t = 0; t < kScanners; ++t) {
    threads.emplace_back([&, t] {
      results[t] = csv_of(engine.aggregate(selective_spec()));
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& csv : results) EXPECT_EQ(csv, expected);

  // Single-flight: every needed (block, column) decoded exactly once
  // across all six concurrent scans -- inserts equals the distinct key
  // count one cold scan produces, and nothing was abandoned.
  const BlockCache::Stats stats = cache.stats();
  serve::BlockCache fresh;
  serve::CachingBlockSource fresh_source(reader, &fresh, 0);
  query::BundleQuery(reader, &fresh_source).aggregate(selective_spec());
  EXPECT_EQ(stats.inserts, fresh.stats().inserts);
  EXPECT_EQ(stats.abandoned, 0u);
  EXPECT_EQ(stats.hits + stats.coalesced + stats.misses,
            static_cast<std::uint64_t>(kScanners) * fresh.stats().misses);
}

}  // namespace
}  // namespace cal
