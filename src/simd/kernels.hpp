#pragma once
// Internal declarations shared by the per-level kernel translation
// units and dispatch.cpp.  Not part of the public simd surface.
//
// The inline helpers here are the single definition of the per-element
// semantics every level must reproduce: one varint's decode rules, one
// IEEE compare, one Welford push.  Each level's vector code reduces to
// calling these on the elements it could not handle wholesale, so the
// byte-identity guarantee falls out of sharing the definitions rather
// than of careful duplication.

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.hpp"

namespace cal::simd::detail {

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Decodes one LEB128 varint from p[0, avail).  Returns bytes consumed,
/// or 0 on truncated / over-long (> 10 byte) / non-canonically
/// terminated input -- the rules ByteReader::varint enforces.
inline std::size_t decode_one_varint(const unsigned char* p,
                                     std::size_t avail, std::uint64_t* out) {
  std::uint64_t v = 0;
  std::size_t i = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (i >= avail) return 0;
    const unsigned char byte = p[i++];
    if (shift == 63 && byte > 1) return 0;  // bits past 2^64 set
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) {
      if (byte == 0 && shift != 0) return 0;  // non-canonical terminator
      *out = v;
      return i;
    }
  }
  return 0;  // continuation bit still set after 10 bytes
}

/// One IEEE double compare: NaN on either side fails everything but kNe.
inline bool cmp_f64(double a, Cmp op, double b) {
  switch (op) {
    case Cmp::kEq: return a == b;
    case Cmp::kNe: return a != b;
    case Cmp::kLt: return a < b;
    case Cmp::kLe: return a <= b;
    case Cmp::kGt: return a > b;
    case Cmp::kGe: return a >= b;
  }
  return false;
}

inline bool cmp_i64(std::int64_t a, Cmp op, std::int64_t b) {
  switch (op) {
    case Cmp::kEq: return a == b;
    case Cmp::kNe: return a != b;
    case Cmp::kLt: return a < b;
    case Cmp::kLe: return a <= b;
    case Cmp::kGt: return a > b;
    case Cmp::kGe: return a >= b;
  }
  return false;
}

/// The exact per-element recurrence of MetricAcc::add + stats::Welford:
/// every level folds surviving elements through this, in index order.
inline void welford_push(WelfordBatch& acc, double x) {
  acc.sum += x;
  acc.min = x < acc.min ? x : acc.min;  // std::min(min, x): NaN keeps min
  acc.max = x > acc.max ? x : acc.max;
  ++acc.n;
  const double delta = x - acc.mean;
  acc.mean += delta / static_cast<double>(acc.n);
  acc.m2 += delta * (x - acc.mean);
}

// --- scalar level (kernels_scalar.cpp): the original byte loops -------------
std::size_t delta_varint_decode_scalar(const unsigned char* data,
                                       std::size_t size, std::size_t n,
                                       std::uint64_t* out);
std::uint32_t crc32_scalar(const void* data, std::size_t size,
                           std::uint32_t seed);
void lz_match_copy_scalar(char* dst, std::size_t offset, std::size_t len);
void f64le_decode_scalar(const void* src, std::size_t n, double* out);
void cmp_mask_f64_scalar(const void* values, std::size_t n, Cmp op,
                         double lit, char* mask, bool refine);
void cmp_mask_i64_scalar(const std::int64_t* values, std::size_t n, Cmp op,
                         std::int64_t lit, char* mask, bool refine);
void welford_fold_scalar(const double* values, const char* mask,
                         std::size_t n, WelfordBatch* acc);
void mask_and_scalar(char* dst, const char* src, std::size_t n);
void mask_or_scalar(char* dst, const char* src, std::size_t n);
void mask_not_scalar(char* mask, std::size_t n);
std::size_t mask_count_scalar(const char* mask, std::size_t n);

// --- avx2 level (kernels_avx2.cpp, -mavx2 -mpclmul) -------------------------
std::uint32_t crc32_clmul(const void* data, std::size_t size,
                          std::uint32_t seed);
void lz_match_copy_chunked(char* dst, std::size_t offset, std::size_t len);
void f64le_decode_bulk(const void* src, std::size_t n, double* out);
void cmp_mask_f64_avx2(const void* values, std::size_t n, Cmp op,
                       double lit, char* mask, bool refine);
void cmp_mask_i64_avx2(const std::int64_t* values, std::size_t n, Cmp op,
                       std::int64_t lit, char* mask, bool refine);
void mask_not_avx2(char* mask, std::size_t n);
std::size_t mask_count_avx2(const char* mask, std::size_t n);

}  // namespace cal::simd::detail
