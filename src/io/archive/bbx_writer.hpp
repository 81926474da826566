#pragma once
// BbxWriter: a RecordSink that archives a campaign as a bbx bundle.
//
// The writer buffers the engine's plan-ordered batches into fixed-size
// blocks (Options::block_records), pivots each full block into columns
// and its zone map in one pass over the records (column_codec's
// BlockEncoder), compresses it (block_codec), checksums the stored
// payload (crc32), and appends the framed block to one of
// Options::shards shard files, round-robin by block index.  Because the
// engine delivers identical plan-ordered batches at any thread count,
// block boundaries -- and therefore every shard's bytes -- are
// deterministic regardless of how many workers measured.
//
// Atomicity: with Options::atomic (the default) every bundle file is
// written under a `*.tmp` staging name and renamed into place only on a
// successful close(), manifest last -- a crashed campaign leaves only
// `.tmp` debris that BbxReader and Campaign::read_dir refuse to treat
// as a bundle.  A close() that happens during exception unwinding (the
// engine finalizing a failed campaign) flushes but deliberately skips
// the renames, so a truncated archive is never published as complete.
//
// The writer runs entirely on the engine's merge thread (the RecordSink
// contract), so it needs no locking; parallelism lives on the read side.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/record_sink.hpp"
#include "io/archive/block_codec.hpp"
#include "io/archive/column_codec.hpp"
#include "io/archive/manifest.hpp"

namespace cal::io::archive {

/// First bytes of every shard file.
inline constexpr char kShardMagic[8] = {'b', 'b', 'x', 's',
                                        'h', 'd', '0', '1'};

struct BbxWriterOptions {
  std::size_t shards = 1;          ///< shard files (>= 1)
  std::size_t block_records = 4096;  ///< records per block (>= 1)
  bool atomic = true;              ///< stage *.tmp, rename on close()
  /// Global index of this writer's first block.  A partial bundle
  /// (one plan partition of a distributed campaign) sets this to
  /// first_run / block_records so its blocks land on the same shards --
  /// round-robin by *global* block index -- as the corresponding blocks
  /// of a single-process run, which is what lets bbx_merge concatenate
  /// shard tails byte-identically.  0 for a whole-campaign writer.
  std::size_t first_block = 0;
};

class BbxWriter final : public RecordSink {
 public:
  using Options = BbxWriterOptions;

  /// Archives into `dir` (created if missing).  Shard files are created
  /// on begin(); construction only validates the options.
  explicit BbxWriter(std::string dir, Options options = {});
  ~BbxWriter() override;

  BbxWriter(const BbxWriter&) = delete;
  BbxWriter& operator=(const BbxWriter&) = delete;

  void begin(const std::vector<std::string>& factor_names,
             const std::vector<std::string>& metric_names,
             std::size_t expected_records) override;
  void consume(std::vector<RawRecord> batch) override;

  /// Flushes the partial tail block, flushes and closes the shard
  /// streams (no fsync), writes the manifest, and (when atomic) renames
  /// everything into place, manifest last.  Idempotent; throws on any
  /// write failure.
  void close() override;

  /// Adds a campaign-metadata entry to the manifest (call before
  /// close()).  Keys repeat in insertion order like Metadata entries.
  void add_manifest_extra(const std::string& key, const std::string& value);

  std::size_t records_written() const noexcept { return records_; }
  const std::string& dir() const noexcept { return dir_; }

 private:
  void flush_block();
  std::string staged_name(const std::string& final_name) const;

  std::string dir_;
  Options options_;
  Manifest manifest_;
  std::vector<std::ofstream> shards_;
  std::vector<std::uint64_t> shard_offsets_;
  std::vector<RawRecord> pending_;  ///< current block, < block_records
  BlockEncoder encoder_;            ///< image + zone map, one pass
  BlockCompressor compressor_;      ///< LZ table kept across blocks
  std::string frame_;               ///< reused header + payload buffer
  std::size_t records_ = 0;
  bool begun_ = false;
  bool closed_ = false;
};

}  // namespace cal::io::archive
