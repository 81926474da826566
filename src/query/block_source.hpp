#pragma once
// Block-provider seam of the query engine.
//
// The scan asks a source for "these blocks, these columns per block",
// and the source decides where the decoded columns come from:
//
//   DirectBlockSource    decodes from the bundle's shard files on every
//                        scan (the single-shot CLI path);
//   serve::CachingBlockSource
//                        consults an LRU decoded-column cache first and
//                        only touches the shards for columns the cache
//                        does not hold (see src/serve/).
//
// Both decode through decode_columns(), so every column a scan sees is
// the same typed io::archive::Column whichever source produced it, and
// the compiled predicate (MaskProgram) has exactly one evaluator.
// Columns travel as shared_ptrs indexed by column id, so a cache can
// hand the same decoded column to many concurrent scans without
// copying; a scan never mutates what it is handed.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/worker_pool.hpp"
#include "io/archive/bbx_reader.hpp"
#include "io/archive/column_codec.hpp"

namespace cal::query {

/// Which columns of a block a scan needs: one flag per column id of the
/// block image (0 sequence, 1 cell, 2 replicate, 3 timestamp,
/// 4+f factor f, 4+n_factors+m metric m -- the zone-map order too).
struct ColumnSet {
  std::vector<char> flags;

  ColumnSet() = default;
  explicit ColumnSet(std::size_t columns) : flags(columns, 0) {}

  ColumnSet& add(std::size_t id) {
    flags.at(id) = 1;
    return *this;
  }
  bool has(std::size_t id) const noexcept {
    return id < flags.size() && flags[id] != 0;
  }
  void merge(const ColumnSet& other);

  /// Ids of every requested column, ascending.
  std::vector<std::uint32_t> column_ids() const;
};

/// The decoded columns of one block, indexed by column id (only those a
/// scan asked for; the rest are null).  Every present column holds
/// exactly `records` values.
struct DecodedColumns {
  std::size_t records = 0;
  std::vector<std::shared_ptr<const io::archive::Column>> columns;

  const io::archive::Column& operator[](std::size_t id) const {
    return *columns[id];
  }
};

/// Decodes every column of `needs` that `d` does not hold yet out of a
/// block's raw image -- the one decode path every source shares.  `d`
/// is sized to the block's column count and its record count set on
/// first use.  Throws when a column decodes to a record count other
/// than `records` (manifest / image disagreement).
void decode_columns(const std::string& raw, const ColumnSet& needs,
                    std::size_t records, std::size_t n_factors,
                    std::size_t n_metrics, DecodedColumns* d);

/// A query predicate compiled for per-block evaluation.  The engine
/// builds one per query; sources use it to evaluate the filter before
/// materializing the scan's output columns.
class MaskProgram {
 public:
  virtual ~MaskProgram() = default;

  /// The columns the predicate reads.
  virtual const ColumnSet& needs() const = 0;

  /// Evaluates the predicate over decoded columns (which must include
  /// needs()) into `mask`: one char per record, 1 = passes.
  virtual void eval(const DecodedColumns& columns,
                    std::vector<char>& mask) const = 0;
};

/// Where a scan's decoded columns come from.
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  /// Fetches + decodes the requested columns of every listed block
  /// (manifest block indices, any subset) and calls
  /// `body(ordinal, columns)` -- `ordinal` is the position within
  /// `blocks`, `needs[ordinal]` the columns that must be present.
  /// Parallel over `pool` when provided; `body` may run concurrently and
  /// must only touch per-ordinal state.  Failures propagate in ordinal
  /// order, like every block-parallel path.
  virtual void scan(const std::vector<std::size_t>& blocks,
                    const std::vector<ColumnSet>& needs,
                    core::WorkerPool* pool,
                    const std::function<void(std::size_t ordinal,
                                             const DecodedColumns& columns)>&
                        body) const = 0;

  /// Predicate-aware scan: decodes `out_needs` for each block and calls
  /// `body(ordinal, columns, mask)` where `mask` is the predicate's
  /// per-record verdict -- nullptr means every record passes (the
  /// block's zone map was certain, `uncertain[ordinal]` false, or
  /// `program` null).  A source may skip `body` entirely for blocks
  /// whose mask comes out all-zero; callers must treat an uncalled
  /// ordinal as matching nothing.  The default implementation decodes
  /// the union of output + predicate columns, then evaluates.
  virtual void scan_filtered(
      const std::vector<std::size_t>& blocks, const ColumnSet& out_needs,
      const std::vector<char>& uncertain, const MaskProgram* program,
      core::WorkerPool* pool,
      const std::function<void(std::size_t ordinal,
                               const DecodedColumns& columns,
                               const std::vector<char>* mask)>& body) const;
};

/// The no-cache source: every scan decodes from the bundle's shards.
class DirectBlockSource final : public BlockSource {
 public:
  /// Borrows the reader; it must outlive the source.
  explicit DirectBlockSource(const io::archive::BbxReader& reader)
      : reader_(reader) {}

  void scan(const std::vector<std::size_t>& blocks,
            const std::vector<ColumnSet>& needs, core::WorkerPool* pool,
            const std::function<void(std::size_t, const DecodedColumns&)>&
                body) const override;

  /// Decodes an uncertain block's predicate columns first, evaluates,
  /// skips decode + body when no record survives, and otherwise decodes
  /// only the output columns the predicate did not already bring in.
  void scan_filtered(
      const std::vector<std::size_t>& blocks, const ColumnSet& out_needs,
      const std::vector<char>& uncertain, const MaskProgram* program,
      core::WorkerPool* pool,
      const std::function<void(std::size_t, const DecodedColumns&,
                               const std::vector<char>*)>& body)
      const override;

 private:
  const io::archive::BbxReader& reader_;
};

}  // namespace cal::query
