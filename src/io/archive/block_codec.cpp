#include "io/archive/block_codec.hpp"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "simd/dispatch.hpp"

namespace cal::io::archive {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 15;

inline std::uint32_t hash4(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  // Fibonacci hash of the 4-byte window, folded to kHashBits.
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline void put_length(std::string& out, std::size_t extra) {
  // 255-continuation length extension (LZ4 style): emitted only when the
  // nibble saturated at 15.
  while (extra >= 255) {
    out.push_back(static_cast<char>(0xff));
    extra -= 255;
  }
  out.push_back(static_cast<char>(extra));
}

void emit_sequence(std::string& out, const char* lit, std::size_t lit_len,
                   std::size_t match_len, std::size_t offset) {
  const std::size_t lit_nibble = lit_len < 15 ? lit_len : 15;
  const bool has_match = match_len >= kMinMatch;
  const std::size_t match_extra = has_match ? match_len - kMinMatch : 0;
  const std::size_t match_nibble =
      has_match ? (match_extra < 15 ? match_extra : 15) : 0;
  out.push_back(static_cast<char>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) put_length(out, lit_len - 15);
  out.append(lit, lit_len);
  if (!has_match) return;  // final literals-only sequence
  out.push_back(static_cast<char>(offset & 0xff));
  out.push_back(static_cast<char>((offset >> 8) & 0xff));
  if (match_nibble == 15) put_length(out, match_extra - 15);
}

}  // namespace

std::string block_compress(const std::string& raw, std::size_t prefix) {
  // Room for the worst case -- the LZ stream of an incompressible block
  // runs one length byte per 255 literals past the input -- so the
  // buffer never regrows, and the stored fallback fits too.
  std::string out;
  out.reserve(prefix + raw.size() + raw.size() / 255 + 16);
  out.assign(prefix, '\0');
  out.push_back(static_cast<char>(kCodecLz));

  const char* data = raw.data();
  const std::size_t n = raw.size();
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, 0xFFFFFFFFu);

  std::size_t anchor = 0;  // first literal not yet emitted
  std::size_t i = 0;
  while (n >= kMinMatch && i + kMinMatch <= n) {
    const std::uint32_t h = hash4(data + i);
    const std::uint32_t candidate = table[h];
    table[h] = static_cast<std::uint32_t>(i);
    if (candidate != 0xFFFFFFFFu && i - candidate <= kMaxOffset &&
        std::memcmp(data + candidate, data + i, kMinMatch) == 0) {
      std::size_t len = kMinMatch;
      while (i + len < n && data[candidate + len] == data[i + len]) ++len;
      emit_sequence(out, data + anchor, i - anchor, len, i - candidate);
      i += len;
      anchor = i;
    } else {
      ++i;
    }
  }
  emit_sequence(out, data + anchor, n - anchor, 0, 0);

  if (out.size() - prefix >= raw.size() + 1) {
    out.resize(prefix);
    out.push_back(static_cast<char>(kCodecStored));
    out.append(raw);
  }
  return out;
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
