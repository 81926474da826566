#pragma once
// Dependency-free LZ-style block codec for bbx archive blocks.
//
// The container must not depend on zlib/lz4 being present, so it ships
// its own byte-oriented LZ77 variant (the LZ4 sequence layout: a token
// with literal/match length nibbles, 255-continuation length extensions,
// and 16-bit match offsets against a greedy hash-table matcher).  The
// encoded columns it compresses are already entropy-reduced -- delta
// varints and dictionary indices -- so a fast match-based codec captures
// most of what a general-purpose compressor would, and an incompressible
// block (e.g. pure noise doubles) falls back to stored form, bounding
// expansion at one codec byte.
//
// Framing: the first payload byte selects the codec (kStored | kLz); the
// decompressor verifies the declared raw size and bounds-checks every
// copy, so corrupt payloads throw instead of scribbling.

#include <cstddef>
#include <string>

namespace cal::io::archive {

enum : unsigned char { kCodecStored = 0, kCodecLz = 1 };

/// Compresses `raw` into a self-describing payload (codec byte +
/// stream).  Falls back to stored form whenever the LZ stream would not
/// be strictly smaller than the input.  The payload starts after
/// `prefix` zero bytes the caller may overwrite -- a frame header, so
/// the payload is never copied into its frame.
std::string block_compress(const std::string& raw, std::size_t prefix = 0);

/// Inverse of block_compress.  `expected_raw_size` comes from the block
/// frame; a payload that is malformed or decodes to a different size
/// throws std::runtime_error.
std::string block_decompress(const char* payload, std::size_t payload_size,
                             std::size_t expected_raw_size);

}  // namespace cal::io::archive
