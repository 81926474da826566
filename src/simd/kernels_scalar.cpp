// Scalar kernel tier: faithful ports of the byte-at-a-time loops the
// archive and query engine ran before the dispatch layer existed.  This
// tier is the semantic reference the avx2 tier is tested against, and
// what CAL_SIMD=scalar pins in CI.

#include <array>
#include <cstring>

#include "simd/kernels.hpp"

namespace cal::simd::detail {

std::size_t delta_varint_decode_scalar(const unsigned char* data,
                                       std::size_t size, std::size_t n,
                                       std::uint64_t* out) {
  std::size_t pos = 0;
  // Unsigned, so an extreme delta wraps (two's complement) instead of
  // overflowing a signed accumulator; the output bits are the same.
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    const std::size_t used = decode_one_varint(data + pos, size - pos, &v);
    if (used == 0) return kDecodeError;
    pos += used;
    prev += static_cast<std::uint64_t>(unzigzag(v));
    out[i] = prev;
  }
  return pos;
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32_scalar(const void* data, std::size_t size,
                           std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void lz_match_copy_scalar(char* dst, std::size_t offset, std::size_t len) {
  const char* src = dst - offset;
  for (std::size_t k = 0; k < len; ++k) dst[k] = src[k];
}

void f64le_decode_scalar(const void* src, std::size_t n, double* out) {
  const auto* p = static_cast<const unsigned char*>(src);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    for (int b = 0; b < 8; ++b) {
      bits |= static_cast<std::uint64_t>(p[8 * i + b]) << (8 * b);
    }
    std::memcpy(&out[i], &bits, sizeof(double));
  }
}

void cmp_mask_f64_scalar(const void* values, std::size_t n, Cmp op,
                         double lit, char* mask, bool refine) {
  const auto* p = static_cast<const unsigned char*>(values);
  for (std::size_t i = 0; i < n; ++i) {
    if (refine && !mask[i]) continue;
    double v = 0.0;
    std::memcpy(&v, p + 8 * i, sizeof(double));
    mask[i] = cmp_f64(v, op, lit);
  }
}

void cmp_mask_i64_scalar(const std::int64_t* values, std::size_t n, Cmp op,
                         std::int64_t lit, char* mask, bool refine) {
  for (std::size_t i = 0; i < n; ++i) {
    if (refine && !mask[i]) continue;
    mask[i] = cmp_i64(values[i], op, lit);
  }
}

void welford_fold_scalar(const double* values, const char* mask,
                         std::size_t n, WelfordBatch* acc) {
  if (mask == nullptr) {
    for (std::size_t i = 0; i < n; ++i) welford_push(*acc, values[i]);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i]) welford_push(*acc, values[i]);
  }
}

void mask_and_scalar(char* dst, const char* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void mask_or_scalar(char* dst, const char* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void mask_not_scalar(char* mask, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) mask[i] = !mask[i];
}

std::size_t mask_count_scalar(const char* mask, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += mask[i] != 0;
  return count;
}

}  // namespace cal::simd::detail
