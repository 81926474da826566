#pragma once
// Cache-backed BlockSource of the serving layer.
//
// CachingBlockSource implements the query engine's block-provider seam
// on top of a shared BlockCache: a scan takes every column it can from
// the cache, decodes only the holes, and inserts what it decoded so the
// next query finds it warm.  Because the planner prunes
// zone-map-rejected blocks before the scan ever reaches a source,
// pruned blocks are never decoded and never admitted.
//
// A scan looks up every (block, column) it needs, then fetches and
// decodes the blocks with holes block-parallel -- inserting each
// block's new columns before serving it -- and finally serves the fully
// cached blocks in parallel, touching no shard file for them.  A failed
// scan leaves behind only the complete columns it had inserted.

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
  const io::archive::BbxReader& reader_;
  BlockCache* cache_;
  std::uint64_t bundle_;
};

}  // namespace cal::serve
