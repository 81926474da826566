#pragma once
// Decoded-block LRU cache of the serving layer.
//
// The serving workload is "an analyst hammers one archive with many
// small queries": the same blocks decode over and over, and decode
// (CRC + LZ decompress + column decode) dominates a selective query.
// BlockCache keeps decoded columns -- keyed by (bundle, block, column)
// -- behind a byte budget with LRU eviction.
//
// Admission is decided by the *caller* (serve::CachingBlockSource): only
// columns a query actually scanned are ever offered, and the query
// planner prunes zone-map-rejected blocks before the scan -- so a block
// a predicate prunes is never decoded and never admitted.  The cache
// itself enforces the byte budget: an insert evicts least-recently-used
// entries until the budget holds again, and an entry wider than the
// whole budget is not retained at all.
//
// The cache does not coalesce concurrent decodes of one column: the
// daemon runs one query at a time (serve::QueryServer), so two scans
// never race for the same miss.  All operations are thread-safe -- one
// scan's pool workers insert concurrently -- and Stats is a consistent
// snapshot.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "io/archive/column_codec.hpp"

namespace cal::serve {

/// One cached decoded column: the typed column scans consume, shared
/// as is.  Its bytes() is the accounting size charged to the budget.
using CachedColumn = io::archive::Column;

class BlockCache {
 public:
  struct Options {
    /// Total decoded bytes retained; 0 retains nothing (every lookup
    /// misses, every insert is rejected).
    std::size_t byte_budget = 256u << 20;
  };

  struct Key {
    std::uint64_t bundle = 0;  ///< catalog-assigned bundle id
    std::uint32_t block = 0;   ///< manifest block index
    std::uint32_t column = 0;  ///< unified column id (query::ColumnSet)

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = std::hash<std::uint64_t>{}(k.bundle);
      h ^= std::hash<std::uint64_t>{}(
               (std::uint64_t{k.block} << 32) | k.column) +
           0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return h;
    }
  };

  struct Stats {
    std::uint64_t hits = 0;       ///< lookups that found an entry
    std::uint64_t misses = 0;     ///< lookups that found nothing
    std::uint64_t inserts = 0;    ///< new keys offered (retained or not)
    std::uint64_t evictions = 0;
    std::uint64_t rejected = 0;   ///< wider than the whole budget
    std::size_t bytes = 0;        ///< currently retained
    std::size_t entries = 0;      ///< currently retained
  };

  BlockCache() : BlockCache(Options{}) {}
  explicit BlockCache(Options options);

  /// The entry, or null; counts a hit or a miss and refreshes recency
  /// on a hit.
  std::shared_ptr<const CachedColumn> get(const Key& key);

  /// Offers a decoded column.  The first value for a key wins (a later
  /// insert of a present key is ignored); an insert wider than the
  /// budget, or any insert under a zero budget, counts as rejected and
  /// is not retained; otherwise LRU entries are evicted until the
  /// budget holds.
  void insert(const Key& key, std::shared_ptr<const CachedColumn> column);

  Stats stats() const;
  const Options& options() const noexcept { return options_; }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const CachedColumn> column;
    std::size_t bytes = 0;  ///< column->bytes()
  };
  using Lru = std::list<Entry>;  ///< front = most recent, back = victim

  const Options options_;
  mutable std::mutex mu_;
  Lru lru_;
  std::unordered_map<Key, Lru::iterator, KeyHash> index_;
  Stats stats_;
};

}  // namespace cal::serve
