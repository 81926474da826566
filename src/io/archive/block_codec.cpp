#include "io/archive/block_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "simd/dispatch.hpp"

namespace cal::io::archive {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 15;
// Table entries: scale position in the low 32 bits, the 4-byte window
// found there in the high 32.  Scale positions of one block sit past
// every earlier block's by more
// than kMaxOffset, and scale position 0 -- a fresh table's entry -- is
// as far out of reach.
constexpr std::uint64_t kFirstBase = kMaxOffset + 1;

inline std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint64_t load_u64(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::uint32_t hash4(std::uint32_t v) {
  // Fibonacci hash of the 4-byte window, folded to kHashBits.
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Length of the common run of a[0, limit) and b[0, limit), 8 bytes per
/// step: the lowest set bit of the first nonzero XOR is the first
/// differing byte of a little-endian load.
inline std::size_t common_length(const char* a, const char* b,
                                 std::size_t limit) {
  std::size_t len = 0;
  if constexpr (std::endian::native == std::endian::little) {
    while (len + 8 <= limit) {
      const std::uint64_t diff = load_u64(a + len) ^ load_u64(b + len);
      if (diff != 0) {
        return len + static_cast<std::size_t>(std::countr_zero(diff) >> 3);
      }
      len += 8;
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

inline char* put_length(char* op, std::size_t extra) {
  // 255-continuation length extension (LZ4 style): emitted only when the
  // nibble saturated at 15.
  while (extra >= 255) {
    *op++ = static_cast<char>(0xff);
    extra -= 255;
  }
  *op++ = static_cast<char>(extra);
  return op;
}

char* emit_sequence(char* op, const char* lit, std::size_t lit_len,
                    std::size_t match_len, std::size_t offset) {
  const std::size_t lit_nibble = lit_len < 15 ? lit_len : 15;
  const bool has_match = match_len >= kMinMatch;
  const std::size_t match_extra = has_match ? match_len - kMinMatch : 0;
  const std::size_t match_nibble =
      has_match ? (match_extra < 15 ? match_extra : 15) : 0;
  *op++ = static_cast<char>((lit_nibble << 4) | match_nibble);
  if (lit_nibble == 15) op = put_length(op, lit_len - 15);
  std::memcpy(op, lit, lit_len);
  op += lit_len;
  if (!has_match) return op;  // final literals-only sequence
  *op++ = static_cast<char>(offset & 0xff);
  *op++ = static_cast<char>((offset >> 8) & 0xff);
  if (match_nibble == 15) op = put_length(op, match_extra - 15);
  return op;
}

}  // namespace

BlockCompressor::BlockCompressor()
    : table_(std::size_t{1} << kHashBits, 0), base_(kFirstBase) {}

void BlockCompressor::compress(const char* data, std::size_t n,
                               std::size_t prefix, std::string& out) {
  constexpr std::uint64_t kScale = std::numeric_limits<std::uint32_t>::max();
  if (n > kScale - kFirstBase) {
    throw std::length_error("bbx: block too large to compress");
  }
  if (base_ + n > kScale) {
    // The scale wraps: start it over on a cleared table.
    std::fill(table_.begin(), table_.end(), std::uint64_t{0});
    base_ = kFirstBase;
  }
  const auto base = static_cast<std::uint32_t>(base_);
  base_ += n + kMaxOffset + 1;

  // Room for the worst case -- the LZ stream of an incompressible block
  // runs one length byte per 255 literals past the input -- so every
  // write below lands inside the buffer, and the stored fallback fits.
  out.resize(prefix + 1 + n + n / 255 + 16);
  char* const start = out.data() + prefix;
  std::memset(out.data(), 0, prefix);
  char* op = start;
  *op++ = static_cast<char>(kCodecLz);

  std::uint64_t* const table = table_.data();
  std::size_t anchor = 0;  // first literal not yet emitted
  std::size_t i = 0;
  while (i + kMinMatch <= n) {
    const std::uint32_t window = load_u32(data + i);
    const std::uint32_t pos = base + static_cast<std::uint32_t>(i);
    // An entry is a position and the 4 bytes found there, so checking a
    // candidate reads the table, not the block.  An empty slot or an
    // earlier block's entry is always more than kMaxOffset away.
    std::uint64_t& entry = table[hash4(window)];
    const std::uint32_t distance = pos - static_cast<std::uint32_t>(entry);
    const bool match = (static_cast<std::uint32_t>(entry >> 32) == window) &
                       (distance <= kMaxOffset);
    entry = static_cast<std::uint64_t>(window) << 32 | pos;
    if (!match) [[likely]] {
      ++i;
      continue;
    }
    const std::size_t len =
        kMinMatch + common_length(data + i - distance + kMinMatch,
                                  data + i + kMinMatch, n - i - kMinMatch);
    op = emit_sequence(op, data + anchor, i - anchor, len, distance);
    i += len;
    anchor = i;
  }
  op = emit_sequence(op, data + anchor, n - anchor, 0, 0);

  if (static_cast<std::size_t>(op - start) >= n + 1) {
    *start = static_cast<char>(kCodecStored);
    std::memcpy(start + 1, data, n);
    op = start + 1 + n;
  }
  out.resize(static_cast<std::size_t>(op - out.data()));
}

namespace {

std::size_t read_length(const char* p, std::size_t size, std::size_t& pos,
                        std::size_t base) {
  for (;;) {
    if (pos >= size) throw std::runtime_error("bbx: LZ stream truncated");
    const auto byte = static_cast<std::uint8_t>(p[pos++]);
    base += byte;
    if (byte != 0xff) return base;
  }
}

}  // namespace

std::string block_decompress(const char* payload, std::size_t payload_size,
                             std::size_t expected_raw_size) {
  if (payload_size == 0) throw std::runtime_error("bbx: empty block payload");
  const auto codec = static_cast<std::uint8_t>(payload[0]);
  const char* p = payload + 1;
  const std::size_t size = payload_size - 1;

  if (codec == kCodecStored) {
    if (size != expected_raw_size) {
      throw std::runtime_error("bbx: stored block size mismatch");
    }
    return std::string(p, size);
  }
  if (codec != kCodecLz) {
    throw std::runtime_error("bbx: unknown block codec " +
                             std::to_string(codec));
  }

  // Pre-sized output: every write lands at a known position, so the
  // literal copies are straight memcpys and match copies go through the
  // dispatched lz_match_copy kernel (chunked, overlap-aware) instead of
  // a per-byte push_back.  Bounds are validated against the declared
  // size before any write, exactly as the byte-at-a-time loop did.
  std::string out(expected_raw_size, '\0');
  std::size_t written = 0;
  std::size_t pos = 0;
  const simd::Kernels& kernels = simd::kernels();
  while (pos < size) {
    const auto token = static_cast<std::uint8_t>(p[pos++]);
    std::size_t lit_len = token >> 4;
    if (lit_len == 15) lit_len = read_length(p, size, pos, lit_len);
    if (pos + lit_len > size) {
      throw std::runtime_error("bbx: LZ literals truncated");
    }
    if (written + lit_len > expected_raw_size) {
      throw std::runtime_error("bbx: LZ output exceeds declared size");
    }
    std::memcpy(out.data() + written, p + pos, lit_len);
    written += lit_len;
    pos += lit_len;
    if (pos == size) break;  // final literals-only sequence

    if (pos + 2 > size) throw std::runtime_error("bbx: LZ offset truncated");
    const std::size_t offset =
        static_cast<std::uint8_t>(p[pos]) |
        (static_cast<std::size_t>(static_cast<std::uint8_t>(p[pos + 1]))
         << 8);
    pos += 2;
    std::size_t match_len = (token & 0x0f);
    if (match_len == 15) match_len = read_length(p, size, pos, match_len);
    match_len += kMinMatch;
    if (offset == 0 || offset > written) {
      throw std::runtime_error("bbx: LZ match offset out of range");
    }
    if (written + match_len > expected_raw_size) {
      throw std::runtime_error("bbx: LZ output exceeds declared size");
    }
    kernels.lz_match_copy(out.data() + written, offset, match_len);
    written += match_len;
  }
  if (written != expected_raw_size) {
    throw std::runtime_error("bbx: block decoded to wrong size");
  }
  return out;
}

}  // namespace cal::io::archive
