// SIMD kernel layer unit suite: every dispatch level this CPU supports
// must produce byte-identical results -- the invariant that lets the
// archive and query engine swap tiers freely.  Integer kernels are
// pinned against scalar references, CRC against known vectors, the
// compare kernels against IEEE/NaN semantics, and welford_fold against
// the sequential scalar recurrence bit-for-bit.

#include "simd/dispatch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "io/archive/wire.hpp"

namespace cal {
namespace {

namespace ar = io::archive;
using simd::Cmp;
using simd::Kernels;
using simd::Level;

std::vector<Level> levels_under_test() {
  std::vector<Level> levels;
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    if (level <= simd::best_supported()) levels.push_back(level);
  }
  return levels;
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    Level parsed = Level::kScalar;
    ASSERT_TRUE(simd::parse_level(simd::to_string(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  Level parsed = Level::kScalar;
  EXPECT_FALSE(simd::parse_level("sse42", &parsed));  // retired level
  EXPECT_FALSE(simd::parse_level("sse9000", &parsed));
  EXPECT_FALSE(simd::parse_level("", &parsed));
}

// The avx2 table hard-wires the CLMUL CRC, so the probe may only pick
// it on a CPU that has PCLMULQDQ as well as AVX2.
TEST(SimdDispatch, Avx2LevelImpliesPclmul) {
  if (simd::best_supported() != Level::kAvx2) {
    GTEST_SKIP() << "best level is " << simd::to_string(simd::best_supported());
  }
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_TRUE(__builtin_cpu_supports("avx2"));
  EXPECT_TRUE(__builtin_cpu_supports("pclmul"));
#else
  ADD_FAILURE() << "avx2 level selected on a non-x86 build";
#endif
}

TEST(SimdDispatch, SetLevelClampsToSupportAndRestores) {
  const Level before = simd::active_level();
  simd::set_level(Level::kScalar);
  EXPECT_EQ(simd::active_level(), Level::kScalar);
  simd::set_level(Level::kAvx2);  // clamped if unsupported
  EXPECT_LE(simd::active_level(), simd::best_supported());
  simd::set_level(before);
  EXPECT_EQ(simd::active_level(), before);
}

// --- delta varint decode ----------------------------------------------------

TEST(SimdKernels, DeltaVarintDecodeMatchesReferenceAtEveryLevel) {
  std::mt19937_64 rng(42);
  for (const std::size_t n : {0u, 1u, 3u, 15u, 16u, 17u, 31u, 32u, 33u,
                              100u, 1000u}) {
    // Mix of tiny deltas (single-byte varints, the vector fast path) and
    // occasional huge jumps (multi-byte varints).
    std::vector<std::int64_t> values(n);
    std::int64_t prev = 0;
    std::string encoded;
    for (std::size_t i = 0; i < n; ++i) {
      std::int64_t delta = static_cast<std::int64_t>(rng() % 7) - 3;
      if (rng() % 13 == 0) delta = static_cast<std::int64_t>(rng());
      values[i] = prev + delta;
      ar::put_svarint(encoded, delta);
      prev = values[i];
    }
    encoded += "trailing";  // decoders must stop after n varints

    for (const Level level : levels_under_test()) {
      const Kernels& k = simd::kernels_at(level);
      std::vector<std::uint64_t> out(n + 1, 0xAAu);
      const std::size_t used = k.delta_varint_decode(
          reinterpret_cast<const unsigned char*>(encoded.data()),
          encoded.size(), n, out.data());
      ASSERT_EQ(used, encoded.size() - 8) << simd::to_string(level);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(static_cast<std::int64_t>(out[i]), values[i])
            << simd::to_string(level) << " at " << i;
      }
      EXPECT_EQ(out[n], 0xAAu) << "wrote past n";
    }
  }
}

TEST(SimdKernels, DeltaVarintDecodeRejectsWhatByteReaderRejects) {
  const std::string malformed[] = {
      std::string(11, '\x80'),             // continuation past 10 bytes
      std::string(9, '\x80') + '\x02',     // bits past 2^64
      std::string("\x80\x00", 2),          // non-canonical zero terminator
      std::string("\x80", 1),              // truncated mid-varint
      std::string(),                       // empty but n > 0
  };
  for (const std::string& bytes : malformed) {
    {
      ar::ByteReader r(bytes);
      EXPECT_THROW(r.varint(), std::runtime_error);
    }
    for (const Level level : levels_under_test()) {
      const Kernels& k = simd::kernels_at(level);
      std::uint64_t out[4] = {};
      EXPECT_EQ(k.delta_varint_decode(
                    reinterpret_cast<const unsigned char*>(bytes.data()),
                    bytes.size(), 1, out),
                simd::kDecodeError)
          << simd::to_string(level);
    }
  }
  // The same bytes *prefixed by valid varints* must also fail (the
  // vector path must not lose strictness mid-buffer).
  for (const Level level : levels_under_test()) {
    const Kernels& k = simd::kernels_at(level);
    std::string bytes;
    for (int i = 0; i < 20; ++i) ar::put_svarint(bytes, i);
    bytes += std::string(9, '\x80') + '\x02';
    std::vector<std::uint64_t> out(21);
    EXPECT_EQ(k.delta_varint_decode(
                  reinterpret_cast<const unsigned char*>(bytes.data()),
                  bytes.size(), 21, out.data()),
              simd::kDecodeError)
        << simd::to_string(level);
  }
}

// --- crc32 ------------------------------------------------------------------

TEST(SimdKernels, Crc32KnownVectorsAtEveryLevel) {
  for (const Level level : levels_under_test()) {
    const Kernels& k = simd::kernels_at(level);
    EXPECT_EQ(k.crc32("", 0, 0), 0u) << simd::to_string(level);
    EXPECT_EQ(k.crc32("123456789", 9, 0), 0xCBF43926u)
        << simd::to_string(level);
    const std::string quick = "The quick brown fox jumps over the lazy dog";
    EXPECT_EQ(k.crc32(quick.data(), quick.size(), 0), 0x414FA339u)
        << simd::to_string(level);
  }
}

TEST(SimdKernels, Crc32LevelsAgreeAndChainOnRandomBuffers) {
  std::mt19937_64 rng(7);
  for (const std::size_t size :
       {0u, 1u, 15u, 16u, 17u, 63u, 64u, 65u, 127u, 255u, 1024u, 4097u}) {
    std::string data(size, '\0');
    for (char& c : data) c = static_cast<char>(rng());
    const Kernels& scalar = simd::kernels_at(Level::kScalar);
    const std::uint32_t want = scalar.crc32(data.data(), data.size(), 0);
    for (const Level level : levels_under_test()) {
      const Kernels& k = simd::kernels_at(level);
      EXPECT_EQ(k.crc32(data.data(), data.size(), 0), want)
          << simd::to_string(level) << " size " << size;
      // Chained halves must equal the one-shot checksum.
      const std::size_t half = size / 2;
      const std::uint32_t first = k.crc32(data.data(), half, 0);
      EXPECT_EQ(k.crc32(data.data() + half, size - half, first), want)
          << simd::to_string(level) << " chained, size " << size;
    }
  }
}

// --- LZ match copy ----------------------------------------------------------

TEST(SimdKernels, LzMatchCopyMatchesBytewiseSemantics) {
  struct Case {
    std::size_t offset, len;
  };
  const Case cases[] = {{1, 1},  {1, 40},  {2, 37}, {3, 64}, {4, 5},
                        {7, 70}, {16, 16}, {16, 90}, {40, 40}, {100, 33},
                        {65535, 10}};
  for (const Case& c : cases) {
    // Seed `offset` bytes of history, then replicate.
    std::vector<char> want(c.offset + c.len);
    for (std::size_t i = 0; i < c.offset; ++i) {
      want[i] = static_cast<char>('a' + (i % 26));
    }
    for (std::size_t i = 0; i < c.len; ++i) {
      want[c.offset + i] = want[i];  // dst[i] = dst[i - offset]
    }
    for (const Level level : levels_under_test()) {
      const Kernels& k = simd::kernels_at(level);
      std::vector<char> got(want.begin(), want.begin() + c.offset);
      got.resize(c.offset + c.len, '\0');
      k.lz_match_copy(got.data() + c.offset, c.offset, c.len);
      EXPECT_EQ(got, want) << simd::to_string(level) << " offset "
                           << c.offset << " len " << c.len;
    }
  }
}

// --- f64 decode -------------------------------------------------------------

TEST(SimdKernels, F64DecodePreservesEveryBitPattern) {
  const double specials[] = {0.0,
                             -0.0,
                             1.0,
                             -3.25,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
  std::string encoded;
  for (const double v : specials) ar::put_f64le(encoded, v);
  for (const Level level : levels_under_test()) {
    const Kernels& k = simd::kernels_at(level);
    std::vector<double> out(std::size(specials));
    k.f64le_decode(encoded.data(), out.size(), out.data());
    for (std::size_t i = 0; i < out.size(); ++i) {
      std::uint64_t got = 0, want = 0;
      std::memcpy(&got, &out[i], 8);
      std::memcpy(&want, &specials[i], 8);
      EXPECT_EQ(got, want) << simd::to_string(level) << " at " << i;
    }
  }
}

// --- compare kernels --------------------------------------------------------

bool ref_cmp(double a, Cmp op, double b) {
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

TEST(SimdKernels, CmpMaskF64HonorsIeeeNanSemanticsAtEveryLevel) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 100; ++i) {
    values.push_back((i % 7 == 0) ? nan : (static_cast<double>(rng() % 41) - 20.0) / 4.0);
  }
  std::string encoded;
  for (const double v : values) ar::put_f64le(encoded, v);

  for (const double lit : {-2.5, 0.0, 3.0, nan}) {
    for (const Cmp op :
         {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt, Cmp::kGe}) {
      for (const Level level : levels_under_test()) {
        const Kernels& k = simd::kernels_at(level);
        std::vector<char> mask(values.size(), 9);
        k.cmp_mask_f64(encoded.data(), values.size(), op, lit, mask.data(),
                       false);
        for (std::size_t i = 0; i < values.size(); ++i) {
          EXPECT_EQ(mask[i], static_cast<char>(ref_cmp(values[i], op, lit)))
              << simd::to_string(level) << " op " << static_cast<int>(op)
              << " i " << i;
        }
        // Refine: pre-clear even entries; they must stay cleared and odd
        // entries must be re-tested.
        std::vector<char> refined(values.size());
        for (std::size_t i = 0; i < values.size(); ++i) refined[i] = i % 2;
        k.cmp_mask_f64(encoded.data(), values.size(), op, lit,
                       refined.data(), true);
        for (std::size_t i = 0; i < values.size(); ++i) {
          const char want =
              (i % 2) ? static_cast<char>(ref_cmp(values[i], op, lit))
                      : char{0};
          EXPECT_EQ(refined[i], want) << simd::to_string(level);
        }
      }
    }
  }
}

TEST(SimdKernels, CmpMaskI64ExactAtBoundariesAtEveryLevel) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::int64_t> values = {min,     min + 1, -2, -1, 0, 1,
                                            (1ll << 53) + 1,   max - 1, max,
                                            42,      -42,      7,  8,  9};
  const auto ref = [](std::int64_t a, Cmp op, std::int64_t b) {
    switch (op) {
      case Cmp::kEq: return a == b;
      case Cmp::kNe: return a != b;
      case Cmp::kLt: return a < b;
      case Cmp::kLe: return a <= b;
      case Cmp::kGt: return a > b;
      case Cmp::kGe: return a >= b;
    }
    return false;
  };
  const std::int64_t literals[] = {min, 0, (1ll << 53) + 1, max};
  for (const std::int64_t lit : literals) {
    for (const Cmp op :
         {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt, Cmp::kGe}) {
      for (const Level level : levels_under_test()) {
        const Kernels& k = simd::kernels_at(level);
        std::vector<char> mask(values.size());
        k.cmp_mask_i64(values.data(), values.size(), op, lit, mask.data(),
                       false);
        for (std::size_t i = 0; i < values.size(); ++i) {
          EXPECT_EQ(mask[i], static_cast<char>(ref(values[i], op, lit)))
              << simd::to_string(level);
        }
      }
    }
  }
}

// --- welford fold -----------------------------------------------------------

TEST(SimdKernels, WelfordFoldBitIdenticalToSequentialRecurrence) {
  std::mt19937_64 rng(23);
  std::normal_distribution<double> noise(5.0, 2.0);
  for (const std::size_t n : {0u, 1u, 5u, 16u, 33u, 100u, 1001u}) {
    std::vector<double> values(n);
    std::vector<char> mask(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = (i % 97 == 13) ? std::numeric_limits<double>::quiet_NaN()
                                 : noise(rng);
      mask[i] = rng() % 3 != 0;
    }
    const char* mask_args[] = {nullptr, mask.data()};
    for (const char* m : mask_args) {
      // Sequential reference: the exact recurrence the kernels promise.
      simd::WelfordBatch want;
      for (std::size_t i = 0; i < n; ++i) {
        if (m != nullptr && !m[i]) continue;
        const double x = values[i];
        want.sum += x;
        want.min = x < want.min ? x : want.min;
        want.max = x > want.max ? x : want.max;
        ++want.n;
        const double delta = x - want.mean;
        want.mean += delta / static_cast<double>(want.n);
        want.m2 += delta * (x - want.mean);
      }
      for (const Level level : levels_under_test()) {
        const Kernels& k = simd::kernels_at(level);
        simd::WelfordBatch got;
        k.welford_fold(values.data(), m, n, &got);
        EXPECT_EQ(got.n, want.n) << simd::to_string(level);
        const auto bits = [](double v) {
          std::uint64_t b = 0;
          std::memcpy(&b, &v, 8);
          return b;
        };
        EXPECT_EQ(bits(got.sum), bits(want.sum)) << simd::to_string(level);
        EXPECT_EQ(bits(got.mean), bits(want.mean)) << simd::to_string(level);
        EXPECT_EQ(bits(got.m2), bits(want.m2)) << simd::to_string(level);
        EXPECT_EQ(bits(got.min), bits(want.min)) << simd::to_string(level);
        EXPECT_EQ(bits(got.max), bits(want.max)) << simd::to_string(level);
      }
    }
  }
}

// --- mask combinators -------------------------------------------------------

TEST(SimdKernels, MaskCombinatorsMatchReferenceAtEveryLevel) {
  std::mt19937_64 rng(31);
  for (const std::size_t n : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 257u}) {
    std::vector<char> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng() % 2;
      b[i] = rng() % 2;
    }
    std::size_t popcount = 0;
    for (std::size_t i = 0; i < n; ++i) popcount += a[i];
    for (const Level level : levels_under_test()) {
      const Kernels& k = simd::kernels_at(level);
      std::vector<char> x = a;
      k.mask_and(x.data(), b.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(x[i], static_cast<char>(a[i] && b[i]))
            << simd::to_string(level);
      }
      x = a;
      k.mask_or(x.data(), b.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(x[i], static_cast<char>(a[i] || b[i]))
            << simd::to_string(level);
      }
      x = a;
      k.mask_not(x.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(x[i], static_cast<char>(!a[i])) << simd::to_string(level);
      }
      EXPECT_EQ(k.mask_count(a.data(), n), popcount)
          << simd::to_string(level);
    }
  }
}

}  // namespace
}  // namespace cal
