#pragma once
// Per-block columnar encoding of raw records (the bbx block image).
//
// A block is a fixed-size slice of plan-ordered RawRecords pivoted into
// columns, each encoded by shape before the LZ pass sees it:
//
//   sequence / cell / replicate   zigzag-delta varints (sequence deltas
//                                 are 1 in plan order; cell deltas of a
//                                 randomized plan are small signed ints)
//   timestamp_s, metric columns   raw little-endian doubles (full
//                                 precision; noise does not compress,
//                                 so no cleverness is pretended)
//   factor columns                tagged per block: all-int columns
//                                 delta-varint, all-real columns raw
//                                 doubles, string/factor columns
//                                 dictionary-encoded (unique levels in
//                                 first-appearance order + per-record
//                                 indices), mixed columns per-value
//                                 tagged.  Kinds are preserved exactly,
//                                 so decode returns the Values that went
//                                 in -- not a text round-trip of them.
//
// The block image starts with varint record/factor/metric counts and a
// per-column byte-size table, so a reader can decode one projected
// column without touching the others.
//
// Decoding yields typed Columns, one per column id (0 sequence, 1 cell,
// 2 replicate, 3 timestamp, 4+f factor f, 4+n_factors+m metric m --
// the zone-map order too):
//
//   i64     sequence / cell / replicate and all-int factor columns
//   f64     timestamp, metrics and all-real factor columns
//   coded   u32 codes into a level table: string factor columns use the
//           block dictionary as their levels; mixed-kind columns get one
//           level per record (no hashing, no special path)
//
// Column::value_at is the one place a decoded value is boxed into a
// Value; predicates, folds and caches work on the typed payload.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/record.hpp"
#include "core/value.hpp"
#include "io/archive/wire.hpp"

namespace cal::io::archive {

/// Column ids of the bookkeeping columns; factor f is
/// kFirstFactorColumn + f and metric m kFirstFactorColumn + n_factors + m.
inline constexpr std::size_t kSequenceColumn = 0;
inline constexpr std::size_t kCellColumn = 1;
inline constexpr std::size_t kReplicateColumn = 2;
inline constexpr std::size_t kTimestampColumn = 3;
inline constexpr std::size_t kFirstFactorColumn = 4;

/// Number of column ids of a block with this schema.
inline std::size_t block_columns(std::size_t n_factors,
                                 std::size_t n_metrics) noexcept {
  return kFirstFactorColumn + n_factors + n_metrics;
}

/// One decoded block column; exactly one payload matches `kind`.
struct Column {
  enum class Kind : unsigned char { kI64, kF64, kCoded };

  Kind kind = Kind::kF64;
  std::vector<std::int64_t> i64;
  std::vector<double> f64;
  std::vector<std::uint32_t> codes;  ///< kCoded: index into `levels`
  std::vector<Value> levels;         ///< kCoded

  std::size_t size() const noexcept;

  /// Record i's value, boxed.
  Value value_at(std::size_t i) const;

  /// Approximate resident size (payload vectors plus level strings).
  std::size_t bytes() const noexcept;
};

/// One block image with its header parsed once: column byte ranges,
/// record count, and per-column decode.  Borrows `raw`; the image must
/// outlive the view.
class BlockView {
 public:
  BlockView(const std::string& raw, std::size_t n_factors,
            std::size_t n_metrics);

  std::size_t records() const noexcept { return records_; }

  /// Decodes column `id` (see the header comment for the id space).
  Column column(std::size_t id) const;

 private:
  ByteReader payload(std::size_t id) const;

  const std::string* raw_;
  std::size_t records_ = 0;
  std::size_t n_factors_ = 0;
  std::size_t payload_start_ = 0;
  std::vector<std::size_t> column_bytes_;
};

/// Encodes records[0, n) into a block image.  Record widths must agree
/// with `n_factors`/`n_metrics` (the writer validated them on consume).
std::string encode_block(const RawRecord* records, std::size_t n,
                         std::size_t n_factors, std::size_t n_metrics);

/// Decodes a full block image back into records.
std::vector<RawRecord> decode_block(const std::string& raw,
                                    std::size_t n_factors,
                                    std::size_t n_metrics);

}  // namespace cal::io::archive
