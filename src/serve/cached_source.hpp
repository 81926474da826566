#pragma once
// Cache-backed BlockSource of the serving layer.
//
// CachingBlockSource implements the query engine's block-provider seam
// on top of a shared BlockCache: a scan takes every column it can from
// the cache, decodes only the holes, and publishes what it decoded so
// the next query -- or a concurrent one -- finds it warm.  Because the
// planner prunes zone-map-rejected blocks before the scan ever reaches
// a source, pruned blocks are never decoded and never admitted.
//
// A scan proceeds in phases, ordered so concurrent scans cannot
// deadlock on each other's in-flight decodes:
//
//   A  classify   every (block, column) is claimed via
//                 BlockCache::get_or_begin -- hit, owned (this scan
//                 decodes), or pending (another scan is decoding);
//   B  decode     blocks with owned columns are fetched + decoded
//                 block-parallel; every owned column is inserted
//                 (resolving it for waiters) and blocks with no pending
//                 columns run the scan body immediately;
//   B2 serve      fully-cached blocks run the scan body in parallel --
//                 the warm path touches no shard file at all;
//   C  wait       only now, with every owned key resolved, does the
//                 scan wait on columns owned by other scans.  A wait
//                 that returns null (the owner failed and abandoned)
//                 retries ownership and falls back to a sequential
//                 decode of just that column.
//
// On any failure the scan abandons whatever it owned and had not yet
// resolved, so a failing request wakes -- never wedges -- its followers
// and leaves no poisoned cache entry behind.

#include <cstdint>

#include "io/archive/bbx_reader.hpp"
#include "query/block_source.hpp"
#include "serve/block_cache.hpp"

namespace cal::serve {

class CachingBlockSource final : public query::BlockSource {
 public:
  /// Borrows the reader and the cache; both must outlive the source.
  /// `bundle_id` namespaces this bundle's keys within the shared cache
  /// (the catalog assigns one per bundle).
  CachingBlockSource(const io::archive::BbxReader& reader, BlockCache* cache,
                     std::uint64_t bundle_id)
      : reader_(reader), cache_(cache), bundle_(bundle_id) {}

  /// Brings in the output columns plus, for an uncertain block, the
  /// predicate's, then evaluates the predicate on them before `body`.
  /// Every block that reaches the scan is decoded and admitted whole,
  /// even one whose mask comes out all-zero.
  void scan_filtered(
      const std::vector<std::size_t>& blocks, const query::ColumnSet& out_needs,
      const std::vector<char>& uncertain, const query::MaskProgram* program,
      core::WorkerPool* pool,
      const std::function<void(std::size_t, const query::DecodedColumns&,
                               const std::vector<char>*)>& body)
      const override;

  const io::archive::BbxReader& reader() const noexcept { return reader_; }
  BlockCache& cache() const noexcept { return *cache_; }
  std::uint64_t bundle_id() const noexcept { return bundle_; }

 private:
  /// Phases A-C above: `body(ordinal, columns)` once `needs[ordinal]`
  /// of block `blocks[ordinal]` are all present.
  void scan_columns(
      const std::vector<std::size_t>& blocks,
      const std::vector<query::ColumnSet>& needs, core::WorkerPool* pool,
      const std::function<void(std::size_t, const query::DecodedColumns&)>&
          body) const;

  const io::archive::BbxReader& reader_;
  BlockCache* cache_;
  std::uint64_t bundle_;
};

}  // namespace cal::serve
