#pragma once
// Runtime-dispatched SIMD kernel layer for the bbx read path.
//
// The hot loops of the archive and the query engine -- varint
// zigzag-delta decode, LZ match copy, CRC-32, f64 column decode,
// predicate compare loops, Welford folds -- run through a table of
// function pointers selected once at startup by CPUID probe:
//
//   scalar   faithful ports of the original byte-at-a-time loops: the
//            reference every other level is tested against
//   avx2     PCLMULQDQ-folded CRC, 4-lane compare kernels, 32-byte
//            mask NOT and popcount, and the memcpy-based LZ copy and
//            f64 decode; requires AVX2 *and* PCLMULQDQ, otherwise the
//            probe settles on scalar
//
// A vector kernel stays in the avx2 table only while bench_simd shows
// it >= 1.5x the scalar loop on at least one archive-shaped input;
// where it does not (the varint decode, the Welford fold, mask
// AND/OR), the avx2 table points at the scalar kernel.
//
// The invariant that keeps the levels honest: every kernel produces
// byte-identical output at every level.  Integer kernels are exact by
// construction; the floating-point kernels either perform no arithmetic
// (compares, f64 decode) or are the scalar IEEE recurrence itself
// (welford_fold).  The kernel translation units are compiled with
// -ffp-contract=off so neither level silently fuses a multiply-add the
// other does not.
//
// `CAL_SIMD=scalar|avx2` pins the level from the environment (clamped
// to what the CPU supports; an unknown value warns on stderr and keeps
// the probed best); set_level() is the same hook in-process for tests
// and benchmarks.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace cal::simd {

enum class Level : int { kScalar = 0, kAvx2 = 1 };

const char* to_string(Level level) noexcept;

/// Parses "scalar" / "avx2" (the CAL_SIMD vocabulary).
bool parse_level(const std::string& name, Level* out) noexcept;

/// Comparison ops of the compare kernels.  Doubles follow IEEE
/// semantics -- every op except kNe is false when either side is NaN --
/// and int64 compares are exact: the unboxed mirror of
/// query::value_compare on numeric values.
enum class Cmp : int { kEq = 0, kNe, kLt, kLe, kGt, kGe };

/// Running Welford + extrema state of one fold.  Merging partials stays
/// the caller's business (stats::Welford::merge in plan order).
struct WelfordBatch {
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

/// Returned by delta_varint_decode on truncated or malformed input.
inline constexpr std::size_t kDecodeError = static_cast<std::size_t>(-1);

struct Kernels {
  /// Decodes `n` zigzag-delta varints from `data[0, size)`, prefix-sums
  /// them, and stores the running value's two's-complement bit pattern
  /// in out[0, n).  Returns bytes consumed, or kDecodeError on
  /// truncated, over-long (> 10 byte), or non-canonically terminated
  /// input -- exactly the inputs ByteReader::varint rejects.
  std::size_t (*delta_varint_decode)(const unsigned char* data,
                                     std::size_t size, std::size_t n,
                                     std::uint64_t* out);

  /// CRC-32 (IEEE 802.3, reflected 0xEDB88320), chainable: pass the
  /// previous call's return as `seed` (0 starts a fresh checksum).
  std::uint32_t (*crc32)(const void* data, std::size_t size,
                         std::uint32_t seed);

  /// LZ back-reference: dst[i] = dst[i - offset] for i in [0, len),
  /// with byte-replication semantics when offset < len.  The caller
  /// guarantees offset >= 1, the source range starts inside the buffer,
  /// and len bytes are writable at dst.
  void (*lz_match_copy)(char* dst, std::size_t offset, std::size_t len);

  /// Decodes n little-endian f64 values from an unaligned byte stream.
  void (*f64le_decode)(const void* src, std::size_t n, double* out);

  /// mask[i] = (values[i] op lit) over unaligned LE doubles.  With
  /// `refine`, only still-set entries are tested (cleared on mismatch).
  /// Mask bytes are strictly 0/1.
  void (*cmp_mask_f64)(const void* values, std::size_t n, Cmp op,
                       double lit, char* mask, bool refine);
  void (*cmp_mask_i64)(const std::int64_t* values, std::size_t n, Cmp op,
                       std::int64_t lit, char* mask, bool refine);

  /// Folds values[i] (where mask[i]; all records when mask == nullptr)
  /// into `acc` in index order with the exact scalar Welford + extrema
  /// recurrence.  Every level runs the scalar fold, so results are
  /// bit-identical across levels by construction.
  void (*welford_fold)(const double* values, const char* mask,
                       std::size_t n, WelfordBatch* acc);

  /// 0/1 mask combinators (dst op= src) and population count.
  void (*mask_and)(char* dst, const char* src, std::size_t n);
  void (*mask_or)(char* dst, const char* src, std::size_t n);
  void (*mask_not)(char* mask, std::size_t n);
  std::size_t (*mask_count)(const char* mask, std::size_t n);
};

/// Best level this CPU supports (CPUID probe, cached).
Level best_supported() noexcept;

/// Level of the currently active kernel table.  Initialized on first
/// use to best_supported(), or to CAL_SIMD when set in the environment.
Level active_level() noexcept;

/// Test/bench hook: swaps the active kernel table (clamped to
/// best_supported()).  Not synchronized against concurrent kernel use;
/// call between scans.
void set_level(Level level) noexcept;

/// The active kernel table.
const Kernels& kernels() noexcept;

/// A specific level's table, clamped to best_supported() -- lets tests
/// and benchmarks compare levels without touching the process state.
const Kernels& kernels_at(Level level) noexcept;

}  // namespace cal::simd
