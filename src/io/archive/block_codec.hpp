#pragma once
// Dependency-free LZ-style block codec for bbx archive blocks.
//
// The container must not depend on zlib/lz4 being present, so it ships
// its own byte-oriented LZ77 variant (the LZ4 sequence layout: a token
// with literal/match length nibbles, 255-continuation length extensions,
// and 16-bit match offsets against a greedy hash-table matcher that
// enters every position it visits and extends a match 8 bytes at a
// time).  The encoded columns it compresses are already entropy-reduced
// -- delta varints and dictionary indices -- so a fast match-based
// codec captures
// most of what a general-purpose compressor would, and an incompressible
// block (e.g. pure noise doubles) falls back to stored form, bounding
// expansion at one codec byte.
//
// Framing: the first payload byte selects the codec (kStored | kLz); the
// decompressor verifies the declared raw size and bounds-checks every
// copy, so corrupt payloads throw instead of scribbling.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cal::io::archive {

enum : unsigned char { kCodecStored = 0, kCodecLz = 1 };

/// The LZ matcher with its 2^15-entry hash table kept across blocks.
/// An entry holds a position and the 4 bytes found there, so a candidate
/// is checked without reading the block.  Positions are on a running
/// 32-bit scale that jumps by
/// more than the match window between blocks, so an entry left by an
/// earlier block is out of reach by construction: no block refills the
/// table (only a wrap of the scale does), and the parse of each block is
/// exactly the one a fresh table gives.  One compressor per writer; not
/// thread-safe.
class BlockCompressor {
 public:
  BlockCompressor();

  /// Compresses raw[0, n) into `out` (overwritten) as a self-describing
  /// payload (codec byte + stream), falling back to stored form whenever
  /// the LZ stream would not be strictly smaller than the input.  The
  /// payload starts after `prefix` zero bytes the caller may overwrite
  /// -- a frame header, so the payload is never copied into its frame.
  void compress(const char* raw, std::size_t n, std::size_t prefix,
                std::string& out);

 private:
  std::vector<std::uint64_t> table_;  ///< (window << 32) | position
  std::uint64_t base_;  ///< scale position of the next block's byte 0
};

/// Inverse of BlockCompressor::compress.  `expected_raw_size` comes
/// from the block frame; a payload that is malformed or decodes to a
/// different size throws std::runtime_error.
std::string block_decompress(const char* payload, std::size_t payload_size,
                             std::size_t expected_raw_size);

}  // namespace cal::io::archive
