#pragma once
// BbxReader: readback side of the bbx bundle format.
//
// The reader plans everything from the manifest: which shard holds each
// block, where, and what checksum it must carry.  Shards are read into
// memory once (they are compressed, so a shard buffer is a fraction of
// the table it decodes to) and blocks are verified + decompressed +
// decoded either sequentially or in parallel on a caller-provided
// core::WorkerPool -- block decode is embarrassingly parallel, and the
// pool's run_indexed keeps failure propagation in block (= plan) order.
//
// Reconstruction is value-identical to the CSV path: Value kinds are
// stored exactly, doubles are bit-preserved, and records come back in
// plan order.  Per-column projection decodes only the requested column
// of each block (decompression is per block, but the column offset
// table inside the image lets everything else be skipped).

#include <functional>
#include <string>
#include <vector>

#include "core/record.hpp"
#include "core/worker_pool.hpp"
#include "io/archive/column_codec.hpp"
#include "io/archive/manifest.hpp"

namespace cal::io::archive {

class BbxReader {
 public:
  /// Opens `<dir>`'s manifest; throws a clear error when the directory
  /// is not a complete bbx bundle.
  explicit BbxReader(std::string dir);

  const Manifest& manifest() const noexcept { return manifest_; }
  std::uint64_t size() const noexcept { return manifest_.total_records; }

  /// Decodes the whole bundle back into a RawTable, block-parallel when
  /// `pool` has more than one worker (pass nullptr for sequential).
  RawTable read_all(core::WorkerPool* pool = nullptr) const;

  /// Projection: one factor column, plan order.
  std::vector<Value> factor_column(const std::string& name,
                                   core::WorkerPool* pool = nullptr) const;

  /// Projection: one metric column, plan order.
  std::vector<double> metric_column(const std::string& name,
                                    core::WorkerPool* pool = nullptr) const;

  /// Scan hook for the query layer: verifies + decompresses each listed
  /// block (manifest block indices, any subset, any order) and hands its
  /// raw image to `body(ordinal, block, raw)` -- `ordinal` is the
  /// position within `blocks`, for slot-addressed result collection.
  /// Only the listed blocks' frames are read from disk (per-shard seeks
  /// driven by the manifest index), so a pruned scan's I/O and resident
  /// bytes are proportional to what survived, not to the bundle.
  /// Parallel over the pool when provided; `body` runs concurrently and
  /// must only touch per-ordinal state.  Failures propagate in ordinal
  /// order, like every other block-parallel path.
  void scan_blocks(const std::vector<std::size_t>& blocks,
                   core::WorkerPool* pool,
                   const std::function<void(std::size_t ordinal,
                                            std::size_t block,
                                            const std::string& raw)>& body)
      const;

  /// True when `dir` holds a bundle manifest (used by format
  /// auto-detection; does not validate the shards).
  static bool is_bundle(const std::string& dir);

 private:
  /// Loads every shard file into memory, validating magic bytes.
  std::vector<std::string> load_shards() const;

  /// Verifies block `index`'s frame + checksum and returns its
  /// decompressed image.
  std::string fetch_block(const std::vector<std::string>& shards,
                          std::size_t index) const;

  /// Column `id` of every block, decoded block-parallel over `pool`.
  std::vector<Column> column_blocks(std::size_t id,
                                    core::WorkerPool* pool) const;

  /// Shared frame verification: `frame` points at block `index`'s
  /// [stored][raw][crc][payload] bytes (caller guarantees the full
  /// frame is readable); returns the decompressed block image.
  std::string decode_frame(const char* frame, std::size_t index) const;

  /// Runs `body(block_index)` for every block, in parallel when the pool
  /// allows, rethrowing the lowest-block failure.
  void for_each_block(core::WorkerPool* pool,
                      const std::function<void(std::size_t)>& body) const;

  std::string dir_;
  Manifest manifest_;
};

}  // namespace cal::io::archive
