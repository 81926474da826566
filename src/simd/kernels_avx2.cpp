// AVX2 kernel tier: PCLMULQDQ-folded CRC-32 (the Intel "Fast CRC
// Computation Using PCLMULQDQ" reduction over the reflected IEEE
// polynomial), 4-lane compare kernels, 32-byte mask NOT and popcount,
// and the memcpy-based LZ match copy and f64 column decode.  Compiled
// with -mavx2 -mpclmul -ffp-contract=off.  The varint decode, Welford
// fold and mask AND/OR of this tier are the scalar ones (see
// dispatch.cpp).

#include <bit>
#include <cstring>

#if defined(__AVX2__) && defined(__PCLMUL__)
#include <immintrin.h>
#endif

#include "simd/kernels.hpp"

namespace cal::simd::detail {

// Portable C++: these need no intrinsics, only a level whose tests and
// floors cover them.  They stay out of the scalar tier so that tier
// remains the byte-loop reference.

void lz_match_copy_chunked(char* dst, std::size_t offset, std::size_t len) {
  if (offset >= len) {
    // Non-overlapping: one straight copy.
    std::memcpy(dst, dst - offset, len);
    return;
  }
  // Overlapping back-reference: the match replicates a period-`offset`
  // pattern.  Seed one period, then double the filled prefix -- each
  // copy's source and destination are disjoint, and every copy starts
  // at a multiple of the period, so replication semantics are
  // preserved while copies run chunk-at-a-time.
  std::memcpy(dst, dst - offset, offset);
  std::size_t filled = offset;
  while (filled < len) {
    const std::size_t chunk = filled < len - filled ? filled : len - filled;
    std::memcpy(dst + filled, dst, chunk);
    filled += chunk;
  }
}

void f64le_decode_bulk(const void* src, std::size_t n, double* out) {
  if constexpr (std::endian::native == std::endian::little) {
    // A zero-record column may hand in a null `out`, and memcpy's
    // pointers must be valid even for a zero size.
    if (n != 0) std::memcpy(out, src, n * sizeof(double));
  } else {
    f64le_decode_scalar(src, n, out);
  }
}

#if defined(__AVX2__) && defined(__PCLMUL__)

namespace {

// Folding constants for the reflected IEEE polynomial (Intel CLMUL
// whitepaper; the layout zlib's crc32_simd uses): k1/k2 fold 64 bytes,
// k3/k4 fold 16, k5 reduces 96->64 bits, then a Barrett reduction with
// mu and the polynomial produces the 32-bit remainder.
const std::uint64_t kK1K2[2] = {0x0154442bd4, 0x01c6e41596};
const std::uint64_t kK3K4[2] = {0x01751997d0, 0x00ccaa009e};
const std::uint64_t kK5K0[2] = {0x0163cd6124, 0x0000000000};
const std::uint64_t kPoly[2] = {0x01db710641, 0x01f7011641};

/// CLMUL body over a multiple-of-16, >= 64 byte buffer.  Takes and
/// returns the *raw* (pre/post-conditioned) CRC state.
std::uint32_t crc32_clmul_raw(const unsigned char* buf, std::size_t len,
                              std::uint32_t crc) {
  __m128i x0, x1, x2, x3, x4, x5;

  x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf));
  x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 16));
  x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 32));
  x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 48));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK1K2));
  buf += 64;
  len -= 64;

  // Parallel fold, four 16-byte stripes at a time.
  while (len >= 64) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(x1, _mm_loadu_si128(
                               reinterpret_cast<const __m128i*>(buf)));
    x1 = _mm_xor_si128(x1, x5);
    x5 = _mm_clmulepi64_si128(x2, x0, 0x00);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x2 = _mm_xor_si128(x2, _mm_loadu_si128(
                               reinterpret_cast<const __m128i*>(buf + 16)));
    x2 = _mm_xor_si128(x2, x5);
    x5 = _mm_clmulepi64_si128(x3, x0, 0x00);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x3 = _mm_xor_si128(x3, _mm_loadu_si128(
                               reinterpret_cast<const __m128i*>(buf + 32)));
    x3 = _mm_xor_si128(x3, x5);
    x5 = _mm_clmulepi64_si128(x4, x0, 0x00);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);
    x4 = _mm_xor_si128(x4, _mm_loadu_si128(
                               reinterpret_cast<const __m128i*>(buf + 48)));
    x4 = _mm_xor_si128(x4, x5);
    buf += 64;
    len -= 64;
  }

  // Fold the four stripes into one.
  x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK3K4));
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(x1, x2);
  x1 = _mm_xor_si128(x1, x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(x1, x3);
  x1 = _mm_xor_si128(x1, x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(x1, x4);
  x1 = _mm_xor_si128(x1, x5);

  // Remaining whole 16-byte chunks.
  while (len >= 16) {
    x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf));
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(x1, x2);
    x1 = _mm_xor_si128(x1, x5);
    buf += 16;
    len -= 16;
  }

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x3 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);
  x0 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kK5K0));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, x3);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction to 32 bits.
  x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kPoly));
  x2 = _mm_and_si128(x1, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
  x2 = _mm_and_si128(x2, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

}  // namespace

std::uint32_t crc32_clmul(const void* data, std::size_t size,
                          std::uint32_t seed) {
  // The folded body needs >= 64 bytes and eats whole 16-byte chunks;
  // route the rest (small buffers, tails) through the bytewise table.
  if (size < 64) return crc32_scalar(data, size, seed);
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t folded = size & ~static_cast<std::size_t>(15);
  std::uint32_t raw = seed ^ 0xFFFFFFFFu;
  raw = crc32_clmul_raw(p, folded, raw);
  return crc32_scalar(p + folded, size - folded, raw ^ 0xFFFFFFFFu);
}

namespace {

/// Writes the low 4 bits of a movemask as 0/1 bytes at mask[0, 4), or
/// ANDs them in when refining: the multiply moves bit j to bit 8j (the
/// shifted copies never overlap, so no carries), which on little-endian
/// x86 is byte j -- one 4-byte store instead of four.
template <bool refine>
inline void store_mask4(char* mask, int m) {
  std::uint32_t word =
      (static_cast<std::uint32_t>(m) * 0x204081u) & 0x01010101u;
  if constexpr (refine) {
    std::uint32_t old = 0;
    std::memcpy(&old, mask, 4);
    word &= old;
  }
  std::memcpy(mask, &word, 4);
}

template <bool refine, int imm>
inline void cmp_mask_f64_loop(const void* values, std::size_t n, Cmp op,
                              double lit, char* mask) {
  const auto* p = static_cast<const unsigned char*>(values);
  const __m256d vlit = _mm256_set1_pd(lit);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v =
        _mm256_loadu_pd(reinterpret_cast<const double*>(p + 8 * i));
    const int m = _mm256_movemask_pd(_mm256_cmp_pd(v, vlit, imm));
    store_mask4<refine>(mask + i, m);
  }
  for (; i < n; ++i) {
    if (refine && !mask[i]) continue;
    double v = 0.0;
    std::memcpy(&v, p + 8 * i, sizeof(double));
    mask[i] = cmp_f64(v, op, lit);
  }
}

template <bool refine>
inline void cmp_mask_f64_dispatch(const void* values, std::size_t n, Cmp op,
                                  double lit, char* mask) {
  // Ordered compares are false on NaN (value_compare semantics); kNe is
  // the one unordered-true op.
  switch (op) {
    case Cmp::kEq:
      cmp_mask_f64_loop<refine, _CMP_EQ_OQ>(values, n, op, lit, mask);
      return;
    case Cmp::kNe:
      cmp_mask_f64_loop<refine, _CMP_NEQ_UQ>(values, n, op, lit, mask);
      return;
    case Cmp::kLt:
      cmp_mask_f64_loop<refine, _CMP_LT_OQ>(values, n, op, lit, mask);
      return;
    case Cmp::kLe:
      cmp_mask_f64_loop<refine, _CMP_LE_OQ>(values, n, op, lit, mask);
      return;
    case Cmp::kGt:
      cmp_mask_f64_loop<refine, _CMP_GT_OQ>(values, n, op, lit, mask);
      return;
    case Cmp::kGe:
      cmp_mask_f64_loop<refine, _CMP_GE_OQ>(values, n, op, lit, mask);
      return;
  }
}

template <bool refine>
inline void cmp_mask_i64_impl(const std::int64_t* values, std::size_t n,
                              Cmp op, std::int64_t lit, char* mask) {
  const __m256i vlit = _mm256_set1_epi64x(lit);
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    __m256i r;
    switch (op) {
      case Cmp::kEq: r = _mm256_cmpeq_epi64(v, vlit); break;
      case Cmp::kNe:
        r = _mm256_xor_si256(_mm256_cmpeq_epi64(v, vlit), ones);
        break;
      case Cmp::kGt: r = _mm256_cmpgt_epi64(v, vlit); break;
      case Cmp::kLe:
        r = _mm256_xor_si256(_mm256_cmpgt_epi64(v, vlit), ones);
        break;
      case Cmp::kLt: r = _mm256_cmpgt_epi64(vlit, v); break;
      case Cmp::kGe:
        r = _mm256_xor_si256(_mm256_cmpgt_epi64(vlit, v), ones);
        break;
      default: r = _mm256_setzero_si256(); break;
    }
    const int m = _mm256_movemask_pd(_mm256_castsi256_pd(r));
    store_mask4<refine>(mask + i, m);
  }
  for (; i < n; ++i) {
    if (refine && !mask[i]) continue;
    mask[i] = cmp_i64(values[i], op, lit);
  }
}

}  // namespace

void cmp_mask_f64_avx2(const void* values, std::size_t n, Cmp op,
                       double lit, char* mask, bool refine) {
  if (refine) {
    cmp_mask_f64_dispatch<true>(values, n, op, lit, mask);
  } else {
    cmp_mask_f64_dispatch<false>(values, n, op, lit, mask);
  }
}

void cmp_mask_i64_avx2(const std::int64_t* values, std::size_t n, Cmp op,
                       std::int64_t lit, char* mask, bool refine) {
  if (refine) {
    cmp_mask_i64_impl<true>(values, n, op, lit, mask);
  } else {
    cmp_mask_i64_impl<false>(values, n, op, lit, mask);
  }
}

void mask_not_avx2(char* mask, std::size_t n) {
  // Mask bytes are strictly 0/1 (kernel contract), so NOT is XOR 1.
  std::size_t i = 0;
  const __m256i one = _mm256_set1_epi8(1);
  for (; i + 32 <= n; i += 32) {
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mask + i),
                        _mm256_xor_si256(m, one));
  }
  for (; i < n; ++i) mask[i] = !mask[i];
}

std::size_t mask_count_avx2(const char* mask, std::size_t n) {
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  for (; i + 32 <= n; i += 32) {
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(m, zero));
  }
  std::uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t count = static_cast<std::size_t>(lanes[0] + lanes[1] +
                                               lanes[2] + lanes[3]);
  for (; i < n; ++i) count += mask[i] != 0;
  return count;
}

#else  // no AVX2 + PCLMUL: the tier still links, delegating to scalar.

std::uint32_t crc32_clmul(const void* data, std::size_t size,
                          std::uint32_t seed) {
  return crc32_scalar(data, size, seed);
}
void cmp_mask_f64_avx2(const void* values, std::size_t n, Cmp op,
                       double lit, char* mask, bool refine) {
  cmp_mask_f64_scalar(values, n, op, lit, mask, refine);
}
void cmp_mask_i64_avx2(const std::int64_t* values, std::size_t n, Cmp op,
                       std::int64_t lit, char* mask, bool refine) {
  cmp_mask_i64_scalar(values, n, op, lit, mask, refine);
}
void mask_not_avx2(char* mask, std::size_t n) { mask_not_scalar(mask, n); }
std::size_t mask_count_avx2(const char* mask, std::size_t n) {
  return mask_count_scalar(mask, n);
}

#endif  // __AVX2__ && __PCLMUL__

}  // namespace cal::simd::detail
