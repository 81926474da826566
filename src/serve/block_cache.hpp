#pragma once
// Decoded-block LRU cache of the serving layer.
//
// The serving workload is "an analyst hammers one archive with many
// small queries": the same blocks decode over and over, and decode
// (CRC + LZ decompress + column decode) dominates a selective query.
// BlockCache keeps decoded columns -- keyed by (bundle, block, column)
// -- behind a byte budget with LRU eviction, and coalesces concurrent
// decodes of the same column into one (single-flight), so a stampede of
// identical sub-scans costs one decode, not N.
//
// Admission is decided by the *caller* (serve::CachingBlockSource): only
// columns a query actually scanned are ever offered, and the query
// planner prunes zone-map-rejected blocks before the scan -- so a block
// a predicate prunes is never decoded and never admitted.  The cache
// itself enforces the byte budget: an insert evicts least-recently-used
// entries until the budget holds again (an entry wider than the whole
// budget is handed to waiters but not retained).
//
// Single-flight protocol (the "no double-decode" guarantee):
//
//   auto hit = cache.get_or_begin(key, &owner);
//   if (hit)        use it                         // hit
//   else if (owner) decode; cache.insert(key, col) // first-comer decodes
//   else            hit = cache.wait(key)          // follower waits
//
// The owner MUST resolve every key it owns -- insert() on success,
// abandon() on failure -- before waiting on any key it does not own;
// that ordering is what makes concurrent scans deadlock-free.  wait()
// returns null when the owner abandoned (the waiter retries
// get_or_begin and may become the new owner), so a failing request
// never wedges its followers and never leaves a poisoned entry behind.
//
// All operations are thread-safe; Stats is a consistent snapshot.

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "io/archive/column_codec.hpp"

namespace cal::serve {

/// One cached decoded column: the typed column scans consume, shared
/// as is.  Its bytes() is the accounting size charged to the budget.
using CachedColumn = io::archive::Column;

class BlockCache {
 public:
  struct Options {
    /// Total decoded bytes retained; 0 disables retention entirely
    /// (every lookup misses, single-flight still coalesces).
    std::size_t byte_budget = 256u << 20;
    /// Master switch: false makes the cache a transparent no-op --
    /// every get_or_begin returns ownership, inserts are dropped.
    /// (The "cache disabled" configuration must stay byte-identical.)
    bool enabled = true;
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
    std::uint64_t hits = 0;       ///< resolved entry found
    std::uint64_t misses = 0;     ///< nothing cached (ownership granted)
    std::uint64_t coalesced = 0;  ///< joined another thread's decode
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rejected = 0;   ///< wider than the whole budget
    std::uint64_t abandoned = 0;
    std::size_t bytes = 0;        ///< currently retained
    std::size_t entries = 0;      ///< currently retained
  };

  BlockCache() : BlockCache(Options{}) {}
  explicit BlockCache(Options options);

  /// Plain lookup (no single-flight): the entry, or null.  Refreshes
  /// recency on hit.
  std::shared_ptr<const CachedColumn> get(const Key& key);

  /// Single-flight lookup.  Returns the entry on a hit.  On a miss:
  /// `*owner` is true when this caller must decode and then insert() or
  /// abandon() the key; false when another thread already owns the
  /// decode -- call wait() for the result *after* resolving every key
  /// this caller owns.  Never blocks.
  std::shared_ptr<const CachedColumn> get_or_begin(const Key& key,
                                                   bool* owner);

  /// Blocks until `key`'s in-flight decode resolves.  Returns the
  /// inserted entry, or null when the owner abandoned (or the key is
  /// simply absent) -- the caller should retry get_or_begin.
  std::shared_ptr<const CachedColumn> wait(const Key& key);

  /// Publishes an owned key's decoded column: parked wait()ers receive
  /// the value even when the byte budget retains nothing (the entry is
  /// then dropped; later arrivals miss and retry), and LRU entries are
  /// evicted until the budget holds.  Insert of a non-owned key is
  /// allowed (plain put) and follows the same admission rules.
  void insert(const Key& key, std::shared_ptr<const CachedColumn> column);

  /// Resolves an owned key with no value after a failed decode: waiters
  /// wake and retry.  No-op when the key is resolved or absent -- an
  /// abandoned scan can blanket-abandon everything it began safely.
  void abandon(const Key& key);

  /// Drops every retained entry (in-flight decodes are unaffected).
  void clear();

  Stats stats() const;
  const Options& options() const noexcept { return options_; }

 private:
  struct Entry {
    bool pending = true;
    std::shared_ptr<const CachedColumn> column;     ///< resolved value
    std::size_t bytes = 0;                           ///< column->bytes()
    std::list<Key>::iterator lru;                    ///< valid iff retained
    bool retained = false;
  };

  /// Locked: evicts LRU entries until retained bytes fit the budget.
  void shrink_locked();

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable resolved_cv_;
  // shared_ptr so a wait()er can hold an entry across its removal from
  // the map (unretained insert, abandon, eviction).
  std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> entries_;
  std::list<Key> lru_;  ///< front = most recent, back = eviction victim
  Stats stats_;
};

}  // namespace cal::serve
