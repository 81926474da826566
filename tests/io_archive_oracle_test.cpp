// Differential oracle for the bbx write path.  BlockEncoder (one pass
// per block: image and zone map together) and BlockCompressor (an LZ
// matcher whose hash table outlives each block) must reproduce, byte for
// byte, the straightforward implementations kept here as references:
// the per-column encoder, the per-column zone-map walk and the
// one-step-at-a-time greedy LZ parse on a fresh table.  Random blocks
// cover every factor encoding (int, real, string with up to 101 levels,
// mixed, kind changes at any record), NaN/inf values, and 0-, 1- and
// 32-record blocks; hand-built byte streams cover incompressible,
// all-zero and periodic data, literal and match lengths around the
// 15/255 length-extension boundaries, and match offsets around 65535.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/record.hpp"
#include "io/archive/block_codec.hpp"
#include "io/archive/column_codec.hpp"
#include "io/archive/manifest.hpp"
#include "io/archive/wire.hpp"

namespace cal {
namespace {

namespace ar = io::archive;

// --- references ---------------------------------------------------------------

namespace reference {

using ar::put_f64le;
using ar::put_svarint;
using ar::put_u8;
using ar::put_varint;

enum : unsigned char { kColInt = 0, kColReal = 1, kColString = 2, kColMixed = 3 };

void encode_delta_column(std::string& out, const RawRecord* records,
                         std::size_t n, std::size_t RawRecord::*field) {
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<std::int64_t>(records[i].*field);
    put_svarint(out, v - prev);
    prev = v;
  }
}

void write_dictionary(std::string& out,
                      const std::vector<const std::string*>& dict) {
  put_varint(out, dict.size());
  for (const std::string* s : dict) {
    put_varint(out, s->size());
    out.append(*s);
  }
}

void encode_factor_column(std::string& out, const RawRecord* records,
                          std::size_t n, std::size_t col) {
  bool any_int = false, any_real = false, any_string = false;
  for (std::size_t i = 0; i < n; ++i) {
    switch (records[i].factors[col].kind()) {
      case ValueKind::kInt: any_int = true; break;
      case ValueKind::kReal: any_real = true; break;
      case ValueKind::kString: any_string = true; break;
    }
  }
  std::vector<const std::string*> dict;
  std::unordered_map<std::string, std::uint64_t> dict_index;
  if (any_string) {
    for (std::size_t i = 0; i < n; ++i) {
      const Value& v = records[i].factors[col];
      if (!v.is_string()) continue;
      if (dict_index.emplace(v.as_string(), dict.size()).second) {
        dict.push_back(&v.as_string());
      }
    }
  }
  if (any_int && !any_real && !any_string) {
    put_u8(out, kColInt);
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t v = records[i].factors[col].as_int();
      put_svarint(out, v - prev);
      prev = v;
    }
  } else if (any_real && !any_int && !any_string) {
    put_u8(out, kColReal);
    for (std::size_t i = 0; i < n; ++i) {
      put_f64le(out, records[i].factors[col].as_real());
    }
  } else if (any_string && !any_int && !any_real) {
    put_u8(out, kColString);
    write_dictionary(out, dict);
    for (std::size_t i = 0; i < n; ++i) {
      put_varint(out, dict_index.at(records[i].factors[col].as_string()));
    }
  } else {
    put_u8(out, kColMixed);
    write_dictionary(out, dict);
    for (std::size_t i = 0; i < n; ++i) {
      const Value& v = records[i].factors[col];
      switch (v.kind()) {
        case ValueKind::kInt:
          put_u8(out, 0);
          put_svarint(out, v.as_int());
          break;
        case ValueKind::kReal:
          put_u8(out, 1);
          put_f64le(out, v.as_real());
          break;
        case ValueKind::kString:
          put_u8(out, 2);
          put_varint(out, dict_index.at(v.as_string()));
          break;
      }
    }
  }
}

std::string encode_block(const RawRecord* records, std::size_t n,
                         std::size_t n_factors, std::size_t n_metrics) {
  const std::size_t columns = 4 + n_factors + n_metrics;
  std::vector<std::string> payloads(columns);
  encode_delta_column(payloads[0], records, n, &RawRecord::sequence);
  encode_delta_column(payloads[1], records, n, &RawRecord::cell_index);
  encode_delta_column(payloads[2], records, n, &RawRecord::replicate);
  for (std::size_t i = 0; i < n; ++i) {
    put_f64le(payloads[3], records[i].timestamp_s);
  }
  for (std::size_t f = 0; f < n_factors; ++f) {
    encode_factor_column(payloads[4 + f], records, n, f);
  }
  for (std::size_t m = 0; m < n_metrics; ++m) {
    std::string& col = payloads[4 + n_factors + m];
    for (std::size_t i = 0; i < n; ++i) put_f64le(col, records[i].metrics[m]);
  }
  std::string out;
  put_varint(out, n);
  put_varint(out, n_factors);
  put_varint(out, n_metrics);
  for (const std::string& p : payloads) put_varint(out, p.size());
  for (const std::string& p : payloads) out.append(p);
  return out;
}

template <typename Values>
ar::ColumnStats numeric_stats(const Values& values) {
  if (values.empty()) return ar::ColumnStats{};
  ar::ColumnStats stats;
  stats.kind = ar::ColumnStats::Kind::kNumeric;
  stats.min = stats.max = static_cast<double>(values.front());
  for (const auto v : values) {
    const double d = static_cast<double>(v);
    if (!std::isfinite(d)) return ar::ColumnStats{};
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
  }
  return stats;
}

ar::ColumnStats factor_stats(const std::vector<RawRecord>& records,
                             std::size_t col) {
  if (records.empty()) return ar::ColumnStats{};
  bool any_numeric = false, any_string = false;
  for (const RawRecord& r : records) {
    (r.factors[col].is_string() ? any_string : any_numeric) = true;
  }
  if (any_numeric && !any_string) {
    ar::ColumnStats stats;
    stats.kind = ar::ColumnStats::Kind::kNumeric;
    stats.min = stats.max = records.front().factors[col].as_real();
    for (const RawRecord& r : records) {
      const double d = r.factors[col].as_real();
      if (!std::isfinite(d)) return ar::ColumnStats{};
      stats.min = std::min(stats.min, d);
      stats.max = std::max(stats.max, d);
    }
    return stats;
  }
  if (any_string && !any_numeric) {
    std::vector<const std::string*> levels;
    for (const RawRecord& r : records) {
      const std::string& level = r.factors[col].as_string();
      if (std::none_of(levels.begin(), levels.end(),
                       [&](const std::string* seen) { return *seen == level; })) {
        if (levels.size() == ar::kZoneMaxLevels) return ar::ColumnStats{};
        levels.push_back(&level);
      }
    }
    std::sort(levels.begin(), levels.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    ar::ColumnStats stats;
    stats.kind = ar::ColumnStats::Kind::kStrings;
    for (const std::string* level : levels) stats.levels.push_back(*level);
    return stats;
  }
  return ar::ColumnStats{};
}

ar::BlockStats compute_block_stats(const std::vector<RawRecord>& records,
                                   std::size_t n_factors,
                                   std::size_t n_metrics) {
  ar::BlockStats stats;
  std::vector<double> scratch(records.size());
  const auto bookkeeping = [&](auto&& field) -> ar::ColumnStats {
    for (std::size_t i = 0; i < records.size(); ++i) {
      scratch[i] = static_cast<double>(field(records[i]));
    }
    return numeric_stats(scratch);
  };
  stats.columns.push_back(
      bookkeeping([](const RawRecord& r) { return r.sequence; }));
  stats.columns.push_back(
      bookkeeping([](const RawRecord& r) { return r.cell_index; }));
  stats.columns.push_back(
      bookkeeping([](const RawRecord& r) { return r.replicate; }));
  stats.columns.push_back(
      bookkeeping([](const RawRecord& r) { return r.timestamp_s; }));
  for (std::size_t f = 0; f < n_factors; ++f) {
    stats.columns.push_back(factor_stats(records, f));
  }
  for (std::size_t m = 0; m < n_metrics; ++m) {
    stats.columns.push_back(
        bookkeeping([m](const RawRecord& r) { return r.metrics[m]; }));
  }
  return stats;
}

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 15;

std::uint32_t hash4(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_length(std::string& out, std::size_t extra) {
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
  if (!has_match) return;
  out.push_back(static_cast<char>(offset & 0xff));
  out.push_back(static_cast<char>((offset >> 8) & 0xff));
  if (match_nibble == 15) put_length(out, match_extra - 15);
}

std::string block_compress(const std::string& raw, std::size_t prefix) {
  std::string out;
  out.assign(prefix, '\0');
  out.push_back(static_cast<char>(ar::kCodecLz));
  const char* data = raw.data();
  const std::size_t n = raw.size();
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, 0xFFFFFFFFu);
  std::size_t anchor = 0;
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
    out.push_back(static_cast<char>(ar::kCodecStored));
    out.append(raw);
  }
  return out;
}

}  // namespace reference

// --- comparison helpers -----------------------------------------------------

/// Zone maps equal down to the bits of min/max (so -0 vs 0 and the
/// order ties are broken in count, as the manifest text would show).
::testing::AssertionResult same_zones(const ar::BlockStats& want,
                                      const ar::BlockStats& got) {
  if (want.columns.size() != got.columns.size()) {
    return ::testing::AssertionFailure()
           << "column count " << got.columns.size() << " != "
           << want.columns.size();
  }
  for (std::size_t c = 0; c < want.columns.size(); ++c) {
    const ar::ColumnStats& a = want.columns[c];
    const ar::ColumnStats& b = got.columns[c];
    if (a.kind != b.kind || a.levels != b.levels ||
        std::memcmp(&a.min, &b.min, sizeof(double)) != 0 ||
        std::memcmp(&a.max, &b.max, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "zone of column " << c << " differs: kind "
             << static_cast<int>(b.kind) << " vs " << static_cast<int>(a.kind)
             << ", [" << b.min << ", " << b.max << "] vs [" << a.min << ", "
             << a.max << "], " << b.levels.size() << " vs "
             << a.levels.size() << " levels";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Encodes `records` with `encoder` (reused across calls) and checks the
/// image, the zone map, and the frames the compressor builds from the
/// image against the references.
void expect_matches_reference(ar::BlockEncoder& encoder,
                              ar::BlockCompressor& compressor,
                              const std::vector<RawRecord>& records,
                              std::size_t n_factors, std::size_t n_metrics) {
  const ar::BlockStats zones = encoder.encode(records.data(), records.size(),
                                              n_factors, n_metrics);
  const std::string want = reference::encode_block(
      records.data(), records.size(), n_factors, n_metrics);
  ASSERT_EQ(encoder.image(), want) << records.size() << " records";
  ASSERT_TRUE(same_zones(
      reference::compute_block_stats(records, n_factors, n_metrics), zones));
  std::string frame;
  compressor.compress(want.data(), want.size(), 12, frame);
  ASSERT_EQ(frame, reference::block_compress(want, 12));
  ASSERT_EQ(ar::decode_block(want, n_factors, n_metrics).size(),
            records.size());
}

// --- random blocks ------------------------------------------------------------

/// How one factor column of a random block draws its values.
enum class Profile {
  kInt,
  kReal,
  kString,
  kIntReal,      // mixed numeric: numeric zone, mixed encoding
  kStringInt,    // strings and ints: no zone
  kAllKinds,
  kSwitchLate,   // one kind, then another from a random record on
};

struct FactorSpec {
  Profile profile;
  std::size_t levels;    // distinct strings drawn from
  std::size_t switch_at;
  bool non_finite;       // reals may be NaN / +-inf
};

double random_real(std::mt19937_64& rng, bool non_finite) {
  std::uniform_int_distribution<int> pick(0, 19);
  if (non_finite) {
    switch (pick(rng)) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return std::numeric_limits<double>::infinity();
      case 2: return -std::numeric_limits<double>::infinity();
      default: break;
    }
  }
  switch (pick(rng)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return 1.0;
    default: break;
  }
  std::normal_distribution<double> normal(0.0, 1e3);
  return normal(rng);
}

std::int64_t random_int(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> pick(0, 3);
  switch (pick(rng)) {
    case 0: return std::uniform_int_distribution<std::int64_t>(-3, 3)(rng);
    case 1: return std::int64_t{1} << std::uniform_int_distribution<int>(0, 40)(rng);
    default:
      return std::uniform_int_distribution<std::int64_t>(-(std::int64_t{1} << 52),
                                                         std::int64_t{1} << 52)(rng);
  }
}

Value random_value(std::mt19937_64& rng, ValueKind kind,
                   const FactorSpec& spec) {
  switch (kind) {
    case ValueKind::kInt: return Value(random_int(rng));
    case ValueKind::kReal: return Value(random_real(rng, spec.non_finite));
    case ValueKind::kString: {
      const std::size_t level =
          std::uniform_int_distribution<std::size_t>(0, spec.levels - 1)(rng);
      // Varying lengths, some sharing prefixes.
      return Value("level-" + std::string(level % 7, 'x') +
                   std::to_string(level));
    }
  }
  return Value();
}

Value draw_factor(std::mt19937_64& rng, const FactorSpec& spec, std::size_t i) {
  std::uniform_int_distribution<int> coin(0, 2);
  switch (spec.profile) {
    case Profile::kInt: return random_value(rng, ValueKind::kInt, spec);
    case Profile::kReal: return random_value(rng, ValueKind::kReal, spec);
    case Profile::kString: return random_value(rng, ValueKind::kString, spec);
    case Profile::kIntReal:
      return random_value(rng, coin(rng) ? ValueKind::kInt : ValueKind::kReal,
                          spec);
    case Profile::kStringInt:
      return random_value(
          rng, coin(rng) ? ValueKind::kString : ValueKind::kInt, spec);
    case Profile::kAllKinds:
      return random_value(rng, static_cast<ValueKind>(coin(rng)), spec);
    case Profile::kSwitchLate:
      return random_value(rng,
                          i < spec.switch_at
                              ? static_cast<ValueKind>(spec.levels % 3)
                              : static_cast<ValueKind>((spec.levels + 1) % 3),
                          spec);
  }
  return Value();
}

std::vector<RawRecord> random_block(std::mt19937_64& rng, std::size_t n,
                                    std::size_t n_factors,
                                    std::size_t n_metrics) {
  std::uniform_int_distribution<int> profile(0, 6);
  std::uniform_int_distribution<int> coin(0, 3);
  const std::size_t level_counts[] = {1, 2, 4, 16, 17, 32, 33, 40, 101};
  std::vector<FactorSpec> specs;
  for (std::size_t f = 0; f < n_factors; ++f) {
    FactorSpec spec;
    spec.profile = static_cast<Profile>(profile(rng));
    spec.levels = level_counts[std::uniform_int_distribution<std::size_t>(
        0, std::size(level_counts) - 1)(rng)];
    spec.switch_at =
        std::uniform_int_distribution<std::size_t>(0, n > 0 ? n - 1 : 0)(rng);
    spec.non_finite = coin(rng) == 0;
    specs.push_back(spec);
  }
  std::vector<bool> metric_non_finite(n_metrics);
  for (std::size_t m = 0; m < n_metrics; ++m) {
    metric_non_finite[m] = coin(rng) == 0;
  }
  const bool timestamp_non_finite = coin(rng) == 0;

  std::vector<RawRecord> records(n);
  std::size_t sequence = std::uniform_int_distribution<std::size_t>(
      0, std::size_t{1} << 40)(rng);
  double now = 0.5;
  for (std::size_t i = 0; i < n; ++i) {
    RawRecord& r = records[i];
    r.sequence = sequence++;
    r.cell_index = std::uniform_int_distribution<std::size_t>(0, 300)(rng);
    r.replicate = std::uniform_int_distribution<std::size_t>(0, 9)(rng);
    now += 1e-4;
    r.timestamp_s = timestamp_non_finite && coin(rng) == 0
                        ? random_real(rng, true)
                        : now;
    std::vector<Value> factors;
    for (std::size_t f = 0; f < n_factors; ++f) {
      factors.push_back(draw_factor(rng, specs[f], i));
    }
    r.factors = std::move(factors);
    for (std::size_t m = 0; m < n_metrics; ++m) {
      r.metrics.push_back(random_real(rng, metric_non_finite[m]));
    }
  }
  return records;
}

TEST(ArchiveOracle, RandomBlocksMatchReferenceEncoderAndZones) {
  std::mt19937_64 rng(20261019);
  ar::BlockEncoder encoder;
  ar::BlockCompressor compressor;
  const std::size_t sizes[] = {0, 1, 2, 32, 33, 100, 257, 1000, 4096};
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = sizes[static_cast<std::size_t>(trial) % std::size(sizes)];
    const std::size_t n_factors =
        std::uniform_int_distribution<std::size_t>(0, 5)(rng);
    const std::size_t n_metrics =
        std::uniform_int_distribution<std::size_t>(0, 3)(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_reference(encoder, compressor,
                             random_block(rng, n, n_factors, n_metrics),
                             n_factors, n_metrics);
  }
}

TEST(ArchiveOracle, EveryFactorProfileAtEveryBlockSize) {
  std::mt19937_64 rng(7);
  ar::BlockEncoder encoder;
  ar::BlockCompressor compressor;
  for (const std::size_t n : {0u, 1u, 32u, 500u}) {
    for (int profile = 0; profile <= 6; ++profile) {
      for (const std::size_t levels : {1u, 16u, 17u, 32u, 33u, 101u}) {
        FactorSpec spec{static_cast<Profile>(profile), levels,
                        n > 1 ? n - 1 : 0, profile % 2 == 0};
        std::vector<RawRecord> records = random_block(rng, n, 0, 1);
        for (std::size_t i = 0; i < n; ++i) {
          records[i].factors = {draw_factor(rng, spec, i)};
        }
        SCOPED_TRACE("n " + std::to_string(n) + " profile " +
                     std::to_string(profile) + " levels " +
                     std::to_string(levels));
        expect_matches_reference(encoder, compressor, records, 1, 1);
      }
    }
  }
}

TEST(ArchiveOracle, ExtremeIntegersRoundTrip) {
  // Deltas between the int64 extremes wrap; the decoder's running sum
  // wraps back.  (The reference encoder's signed subtraction would
  // overflow here, so this case checks the round trip instead.)
  std::vector<RawRecord> records;
  const std::int64_t values[] = {std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max(), 0,
                                 std::numeric_limits<std::int64_t>::min(), -1};
  for (std::size_t i = 0; i < std::size(values); ++i) {
    RawRecord r;
    r.sequence = i == 1 ? std::numeric_limits<std::size_t>::max() : i;
    r.factors = {Value(values[i])};
    records.push_back(r);
  }
  ar::BlockEncoder encoder;
  const ar::BlockStats zones = encoder.encode(records.data(), records.size(), 1, 0);
  const std::vector<RawRecord> back = ar::decode_block(encoder.image(), 1, 0);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].sequence, records[i].sequence);
    EXPECT_EQ(back[i].factors[0].as_int(), values[i]);
  }
  EXPECT_EQ(zones.columns[ar::kFirstFactorColumn].kind,
            ar::ColumnStats::Kind::kNumeric);
  EXPECT_EQ(zones.columns[ar::kFirstFactorColumn].min,
            static_cast<double>(values[0]));
}

// --- LZ streams -----------------------------------------------------------------

std::string random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng() & 0xff);
  return out;
}

/// Runs `raw` through a shared compressor at prefixes 0 and 12 against
/// the reference, and checks it decompresses back.
void expect_same_frames(ar::BlockCompressor& compressor,
                        const std::string& raw) {
  std::string frame;
  for (const std::size_t prefix : {std::size_t{0}, std::size_t{12}}) {
    compressor.compress(raw.data(), raw.size(), prefix, frame);
    ASSERT_EQ(frame, reference::block_compress(raw, prefix))
        << raw.size() << " bytes, prefix " << prefix;
  }
  ASSERT_EQ(ar::block_decompress(frame.data() + 12, frame.size() - 12,
                                 raw.size()),
            raw);
}

TEST(ArchiveOracle, LzStreamsMatchReference) {
  std::mt19937_64 rng(99);
  ar::BlockCompressor compressor;
  // Incompressible, all-zero, and short inputs.
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u,
                              255u, 256u, 4096u, 70000u}) {
    expect_same_frames(compressor, random_bytes(rng, n));
    expect_same_frames(compressor, std::string(n, '\0'));
  }
  // Repeating periods 1-9 at lengths that end mid-word.
  for (std::size_t period = 1; period <= 9; ++period) {
    const std::string unit = random_bytes(rng, period);
    for (const std::size_t n : {11u, 19u, 100u, 271u, 5003u}) {
      std::string raw;
      while (raw.size() < n) raw += unit;
      raw.resize(n);
      expect_same_frames(compressor, raw);
      expect_same_frames(compressor, random_bytes(rng, 37) + raw);
    }
  }
}

TEST(ArchiveOracle, LengthExtensionBoundaries) {
  // Literal runs and matches around the 15-nibble and 255-continuation
  // boundaries: fresh random literals, then a copy of earlier bytes.
  std::mt19937_64 rng(5);
  ar::BlockCompressor compressor;
  const std::size_t lengths[] = {4,   5,   14,  15,  16,  17,  18,  19,  20,
                                 254, 255, 256, 257, 258, 259, 260, 269, 270,
                                 271, 272, 273, 274, 275, 510, 524, 530};
  for (const std::size_t literals : lengths) {
    std::string raw = random_bytes(rng, 600);
    for (const std::size_t match : lengths) {
      raw += random_bytes(rng, literals);
      raw += raw.substr(raw.size() - 600 + (match % 37), match);
    }
    raw += random_bytes(rng, literals);
    expect_same_frames(compressor, raw);
  }
}

TEST(ArchiveOracle, MatchOffsetsAroundTheWindow) {
  std::mt19937_64 rng(11);
  ar::BlockCompressor compressor;
  for (const std::size_t distance :
       {65530u, 65533u, 65534u, 65535u, 65536u, 65537u, 65540u}) {
    for (const std::size_t len : {4u, 8u, 9u, 40u}) {
      std::string raw = random_bytes(rng, distance + len + 64);
      raw.replace(distance + 16, len, raw.substr(16, len));
      expect_same_frames(compressor, raw);
    }
  }
}

TEST(ArchiveOracle, TableScaleWrapStartsOver) {
  // Every block moves the table's position scale past the match window,
  // so ~65k empty blocks wrap its 32 bits; blocks before, across and
  // after the wrap must parse as on a fresh table.
  std::mt19937_64 rng(3);
  ar::BlockCompressor compressor;
  std::string unit = random_bytes(rng, 23);
  std::string raw;
  while (raw.size() < 3000) raw += unit + random_bytes(rng, 5);
  std::string frame;
  for (int block = 0; block < 70000; ++block) {
    if (block % 5000 == 0 || (block > 65500 && block < 65560)) {
      expect_same_frames(compressor, raw);
    } else {
      compressor.compress(raw.data(), 0, 12, frame);
    }
  }
}

}  // namespace
}  // namespace cal
