// bbx archive unit suite: wire primitives, the LZ block codec, CRC32,
// manifest JSON round-trips, writer/reader round-trips (including
// projection and format auto-detection through Campaign), atomic
// staging, and the corruption failure modes -- truncated shard, flipped
// byte, missing manifest, tampered manifest sizes and integers -- each of
// which must fail with a clear error (and without a manifest-sized
// allocation) rather than a wrong table.

#include "io/archive/bbx_reader.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/engine.hpp"
#include "core/metadata.hpp"
#include "io/archive/bbx_writer.hpp"
#include "io/archive/block_codec.hpp"
#include "io/archive/column_codec.hpp"
#include "io/archive/crc32.hpp"
#include "io/archive/manifest.hpp"
#include "io/archive/wire.hpp"
#include "query/engine.hpp"

namespace cal {
namespace {

namespace ar = io::archive;

/// The process's peak resident set so far, in KiB.
long peak_rss_kib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// --- wire -------------------------------------------------------------------

TEST(ArchiveWire, VarintAndZigzagRoundTrip) {
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20,
                                  0xFFFFFFFFFFFFFFFFull};
  std::string buf;
  for (const auto v : values) ar::put_varint(buf, v);
  const std::int64_t signed_values[] = {0, -1, 1, -64, 64, -1000000,
                                        INT64_MIN, INT64_MAX};
  for (const auto v : signed_values) ar::put_svarint(buf, v);
  ar::put_f64le(buf, 3.14159);
  ar::put_u32le(buf, 0xDEADBEEF);

  ar::ByteReader r(buf);
  for (const auto v : values) EXPECT_EQ(r.varint(), v);
  for (const auto v : signed_values) EXPECT_EQ(r.svarint(), v);
  EXPECT_DOUBLE_EQ(r.f64le(), 3.14159);
  EXPECT_EQ(r.u32le(), 0xDEADBEEFu);
  EXPECT_TRUE(r.done());
}

TEST(ArchiveWire, ReaderThrowsOnTruncation) {
  std::string buf;
  ar::put_u32le(buf, 7);
  ar::ByteReader r(buf.data(), 3);  // one byte short
  EXPECT_THROW(r.u32le(), std::runtime_error);
}

TEST(ArchiveWire, VarintRejectsMalformedEncodings) {
  // Fuzz-style adversarial varints the writer never emits.  Each must
  // surface as a clear error, not wrap silently or read out of bounds.
  const auto rejects = [](std::string bytes) {
    ar::ByteReader r(bytes);
    EXPECT_THROW(r.varint(), std::runtime_error) << "bytes: " << bytes.size();
  };
  // Continuation runs past any canonical 64-bit encoding.
  rejects(std::string(11, '\x80'));
  rejects(std::string(16, '\xff'));
  // Tenth byte carries bits past 2^64 (> 1 at shift 63).
  rejects(std::string(9, '\x80') + '\x02');
  rejects(std::string(9, '\xff') + '\x7f');
  // Non-canonical zero terminator after continuation bytes.
  rejects(std::string("\x80\x00", 2));
  rejects(std::string("\xff\xff\x00", 3));
  // Truncated mid-varint (continuation bit set on the last byte).
  rejects(std::string("\x80", 1));
  rejects(std::string(5, '\xb7'));
}

TEST(ArchiveWire, VarintAcceptsCanonicalBoundaryEncodings) {
  {
    // Ten bytes, top byte == 1: exactly 2^63 -- legal and canonical.
    std::string bytes = std::string(9, '\x80');
    bytes += '\x01';
    ar::ByteReader r(bytes);
    EXPECT_EQ(r.varint(), std::uint64_t{1} << 63);
    EXPECT_TRUE(r.done());
  }
  {
    // All value bits set: UINT64_MAX, the widest canonical varint.
    std::string bytes = std::string(9, '\xff');
    bytes += '\x01';
    ar::ByteReader r(bytes);
    EXPECT_EQ(r.varint(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(r.done());
  }
  {
    // A lone zero byte is the canonical encoding of 0.
    const std::string bytes(1, '\x00');
    ar::ByteReader r(bytes);
    EXPECT_EQ(r.varint(), 0u);
  }
}

TEST(ArchiveWriter, ZeroRecordBlockStatsDegradeToEmptyZones) {
  // Regression: the zone folds used to seed min/max from the first
  // record before checking for emptiness.  Zero records must yield
  // all-kNone zones (prune nothing), not undefined behavior, and an
  // image that decodes to no records.
  ar::BlockEncoder encoder;
  const ar::BlockStats stats = encoder.encode(nullptr, 0, 2, 3);
  EXPECT_TRUE(ar::decode_block(encoder.image(), 2, 3).empty());
  ASSERT_EQ(stats.columns.size(), 4u + 2u + 3u);
  for (const ar::ColumnStats& column : stats.columns) {
    EXPECT_EQ(column.kind, ar::ColumnStats::Kind::kNone);
    EXPECT_TRUE(column.levels.empty());
  }
}

// --- crc32 ------------------------------------------------------------------

TEST(ArchiveCrc32, MatchesKnownVector) {
  // The canonical CRC-32 check value.
  const std::string check = "123456789";
  EXPECT_EQ(ar::crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(ar::crc32("", 0), 0u);
}

TEST(ArchiveCrc32, RollingEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t one_shot = ar::crc32(data.data(), data.size());
  const std::uint32_t head = ar::crc32(data.data(), 10);
  EXPECT_EQ(ar::crc32(data.data() + 10, data.size() - 10, head), one_shot);
}

// --- block codec ------------------------------------------------------------

std::string compress(const std::string& raw) {
  std::string packed;
  ar::BlockCompressor().compress(raw.data(), raw.size(), 0, packed);
  return packed;
}

TEST(ArchiveBlockCodec, CompressibleRoundTrip) {
  std::string raw;
  for (int i = 0; i < 500; ++i) raw += "abcabcabc-" + std::to_string(i % 7);
  const std::string packed = compress(raw);
  EXPECT_LT(packed.size(), raw.size() / 2);
  EXPECT_EQ(ar::block_decompress(packed.data(), packed.size(), raw.size()),
            raw);
}

TEST(ArchiveBlockCodec, IncompressibleFallsBackToStored) {
  std::mt19937_64 rng(7);
  std::string raw;
  for (int i = 0; i < 4096; ++i) {
    raw.push_back(static_cast<char>(rng() & 0xff));
  }
  const std::string packed = compress(raw);
  EXPECT_LE(packed.size(), raw.size() + 1);  // bounded expansion
  EXPECT_EQ(ar::block_decompress(packed.data(), packed.size(), raw.size()),
            raw);
}

TEST(ArchiveBlockCodec, EmptyAndTinyInputs) {
  for (const std::string raw : {std::string{}, std::string{"a"},
                                std::string{"abc"}}) {
    const std::string packed = compress(raw);
    EXPECT_EQ(ar::block_decompress(packed.data(), packed.size(), raw.size()),
              raw);
  }
}

TEST(ArchiveBlockCodec, CorruptPayloadThrows) {
  std::string raw;
  for (int i = 0; i < 300; ++i) raw += "patternpattern";
  std::string packed = compress(raw);
  EXPECT_THROW(
      ar::block_decompress(packed.data(), packed.size(), raw.size() + 1),
      std::runtime_error);
  packed[0] = 99;  // unknown codec id
  EXPECT_THROW(ar::block_decompress(packed.data(), packed.size(), raw.size()),
               std::runtime_error);
  EXPECT_THROW(ar::block_decompress(nullptr, 0, 0), std::runtime_error);
}

// --- column codec -----------------------------------------------------------

std::vector<RawRecord> sample_records() {
  std::vector<RawRecord> records;
  for (std::size_t i = 0; i < 64; ++i) {
    RawRecord r;
    r.sequence = i;
    r.cell_index = (i * 13) % 7;
    r.replicate = i / 7;
    r.timestamp_s = 0.5 + 1e-4 * static_cast<double>(i);
    // Factor columns exercise every encoding: all-int, all-string,
    // all-real, and mixed kinds.
    r.factors = {Value(static_cast<std::int64_t>(1024 << (i % 4))),
                 Value(i % 2 ? "pingpong" : "send"),
                 Value(0.25 * static_cast<double>(i)),
                 (i % 3 == 0 ? Value("mixed-level")
                             : (i % 3 == 1 ? Value(std::int64_t{-5})
                                           : Value(2.75)))};
    r.metrics = {static_cast<double>(i) * 1.75, -1.0 / (1.0 + i)};
    records.push_back(std::move(r));
  }
  return records;
}

TEST(ArchiveColumnCodec, BlockRoundTripPreservesKindsExactly) {
  const std::vector<RawRecord> records = sample_records();
  ar::BlockEncoder encoder;
  encoder.encode(records.data(), records.size(), /*n_factors=*/4,
                 /*n_metrics=*/2);
  const std::string& raw = encoder.image();
  const std::vector<RawRecord> back = ar::decode_block(raw, 4, 2);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].sequence, records[i].sequence);
    EXPECT_EQ(back[i].cell_index, records[i].cell_index);
    EXPECT_EQ(back[i].replicate, records[i].replicate);
    EXPECT_EQ(back[i].timestamp_s, records[i].timestamp_s);
    ASSERT_EQ(back[i].factors.size(), 4u);
    for (std::size_t f = 0; f < 4; ++f) {
      EXPECT_EQ(back[i].factors[f].kind(), records[i].factors[f].kind());
      EXPECT_EQ(back[i].factors[f], records[i].factors[f]);
    }
    EXPECT_EQ(back[i].metrics, records[i].metrics);
  }
}

TEST(ArchiveColumnCodec, ProjectionMatchesFullDecode) {
  const std::vector<RawRecord> records = sample_records();
  ar::BlockEncoder encoder;
  encoder.encode(records.data(), records.size(), 4, 2);
  const std::string& raw = encoder.image();
  const ar::BlockView view(raw, 4, 2);
  using Kind = ar::Column::Kind;
  // Each column decodes to its typed payload: index columns and the
  // all-int factor as i64, timestamp / all-real factor / metrics as f64,
  // string and mixed factors as codes into levels.
  const Kind kinds[] = {Kind::kI64,   Kind::kI64, Kind::kI64, Kind::kF64,
                        Kind::kI64,   Kind::kCoded, Kind::kF64, Kind::kCoded,
                        Kind::kF64,   Kind::kF64};
  for (std::size_t id = 0; id < 10; ++id) {
    const ar::Column col = view.column(id);
    EXPECT_EQ(col.kind, kinds[id]) << "column " << id;
    ASSERT_EQ(col.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      const RawRecord& r = records[i];
      const Value expected =
          id == 0   ? Value(r.sequence)
          : id == 1 ? Value(r.cell_index)
          : id == 2 ? Value(r.replicate)
          : id == 3 ? Value(r.timestamp_s)
          : id < 8  ? r.factors[id - 4]
                    : Value(r.metrics[id - 8]);
      const Value got = col.value_at(i);
      EXPECT_EQ(got.kind(), expected.kind()) << "column " << id;
      EXPECT_EQ(got, expected) << "column " << id << " record " << i;
    }
  }
  // The string factor's levels are the block dictionary: one per
  // distinct string, first-appearance order.
  const ar::Column op = view.column(5);
  EXPECT_EQ(op.levels, (std::vector<Value>{Value("send"), Value("pingpong")}));
  EXPECT_THROW(view.column(10), std::out_of_range);
}

TEST(ArchiveColumnCodec, RecordCountBeyondPayloadIsRefusedBeforeAllocating) {
  // A header claiming 10^9 records over one-byte columns: decoding must
  // throw, not allocate gigabytes for the claimed count first.
  std::string raw;
  ar::put_varint(raw, 1000000000);
  ar::put_varint(raw, 0);  // factors
  ar::put_varint(raw, 0);  // metrics
  for (int c = 0; c < 4; ++c) ar::put_varint(raw, 1);
  raw.append(4, '\0');
  const ar::BlockView view(raw, 0, 0);
  for (std::size_t id = 0; id < 4; ++id) {
    EXPECT_THROW(view.column(id), std::runtime_error) << "column " << id;
  }
}

// --- manifest ---------------------------------------------------------------

TEST(ArchiveManifest, JsonRoundTrip) {
  ar::Manifest m;
  m.factor_names = {"op", "size, with comma", "quote\"and\\slash"};
  m.metric_names = {"time_us"};
  m.shard_count = 3;
  m.block_records = 512;
  m.total_records = 1030;
  m.blocks = {{0, 8, 100, 200, 0xDEADBEEFu, 0, 512},
              {1, 8, 90, 180, 7, 512, 512},
              {2, 8, 5, 9, 0xFFFFFFFFu, 1024, 6}};
  m.extra = {{"benchmark", "net\ncalibration"}, {"plan_runs", "1030"}};

  std::stringstream buf;
  m.write(buf);
  const ar::Manifest back = ar::Manifest::parse(buf);
  EXPECT_EQ(back.factor_names, m.factor_names);
  EXPECT_EQ(back.metric_names, m.metric_names);
  EXPECT_EQ(back.shard_count, m.shard_count);
  EXPECT_EQ(back.block_records, m.block_records);
  EXPECT_EQ(back.total_records, m.total_records);
  ASSERT_EQ(back.blocks.size(), m.blocks.size());
  for (std::size_t i = 0; i < m.blocks.size(); ++i) {
    EXPECT_EQ(back.blocks[i].shard, m.blocks[i].shard);
    EXPECT_EQ(back.blocks[i].offset, m.blocks[i].offset);
    EXPECT_EQ(back.blocks[i].stored_bytes, m.blocks[i].stored_bytes);
    EXPECT_EQ(back.blocks[i].raw_bytes, m.blocks[i].raw_bytes);
    EXPECT_EQ(back.blocks[i].crc32, m.blocks[i].crc32);
    EXPECT_EQ(back.blocks[i].first_sequence, m.blocks[i].first_sequence);
    EXPECT_EQ(back.blocks[i].records, m.blocks[i].records);
  }
  EXPECT_EQ(back.extra, m.extra);
}

TEST(ArchiveManifest, MalformedJsonThrows) {
  for (const std::string text :
       {std::string{"{"}, std::string{"[]"}, std::string{"{\"format\": \"csv\"}"},
        std::string{"{\"format\": \"bbx\"} trailing"}}) {
    std::stringstream in(text);
    EXPECT_THROW(ar::Manifest::parse(in), std::runtime_error) << text;
  }
}

// --- writer/reader round trip ----------------------------------------------

Plan small_plan(std::uint64_t seed, std::size_t reps = 6) {
  return DesignBuilder(seed)
      .add(Factor::levels("size", {Value(1024), Value(4096), Value(16384)}))
      .add(Factor::levels("op", {Value("read"), Value("write")}))
      .replications(reps)
      .randomize(true)
      .build();
}

MeasureResult noisy_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double base = run.values[0].as_real() *
                      (run.values[1].as_string() == "read" ? 1.0 : 0.5);
  const double value = base * ctx.rng->lognormal_factor(0.3);
  return MeasureResult{{value, value * 0.25}, value * 1e-7};
}

Engine small_engine(std::size_t threads) {
  Engine::Options options;
  options.seed = 97;
  options.threads = threads;
  return Engine({"time_us", "aux"}, options);
}

void expect_tables_identical(const RawTable& a, const RawTable& b) {
  ASSERT_EQ(a.factor_names(), b.factor_names());
  ASSERT_EQ(a.metric_names(), b.metric_names());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RawRecord& ra = a.records()[i];
    const RawRecord& rb = b.records()[i];
    EXPECT_EQ(ra.sequence, rb.sequence);
    EXPECT_EQ(ra.cell_index, rb.cell_index);
    EXPECT_EQ(ra.replicate, rb.replicate);
    EXPECT_EQ(ra.timestamp_s, rb.timestamp_s);
    EXPECT_EQ(ra.factors, rb.factors);
    EXPECT_EQ(ra.metrics, rb.metrics);
  }
}

class ArchiveBundle : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "calipers_io_archive_test";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Streams a campaign into a bundle and returns the reference table.
  RawTable write_bundle(std::size_t shards, std::size_t block_records,
                        std::uint64_t plan_seed = 11) {
    const Plan plan = small_plan(plan_seed);
    ar::BbxWriterOptions options;
    options.shards = shards;
    options.block_records = block_records;
    ar::BbxWriter sink(dir_.string(), options);
    small_engine(2).run(plan, noisy_measure, sink);
    EXPECT_EQ(sink.records_written(), plan.size());
    return small_engine(1).run(plan, noisy_measure);
  }

  std::filesystem::path dir_;
};

TEST_F(ArchiveBundle, RoundTripIsValueIdentical) {
  const RawTable reference = write_bundle(/*shards=*/3, /*block_records=*/7);
  const ar::BbxReader reader(dir_.string());
  EXPECT_EQ(reader.size(), reference.size());
  expect_tables_identical(reader.read_all(), reference);
}

TEST_F(ArchiveBundle, ProjectionColumnsMatchTable) {
  const RawTable reference = write_bundle(2, 8);
  const ar::BbxReader reader(dir_.string());
  const std::vector<double> time_us = reader.metric_column("time_us");
  EXPECT_EQ(time_us, reference.metric_column("time_us"));
  const std::vector<Value> ops = reader.factor_column("op");
  ASSERT_EQ(ops.size(), reference.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i], reference.records()[i].factors[1]);
  }
  EXPECT_THROW(reader.metric_column("nope"), std::out_of_range);
  EXPECT_THROW(reader.factor_column("nope"), std::out_of_range);
}

TEST_F(ArchiveBundle, WriterLifecycleMisuseThrows) {
  EXPECT_THROW(ar::BbxWriter(dir_.string(), {.shards = 0}),
               std::invalid_argument);
  EXPECT_THROW(ar::BbxWriter(dir_.string(), {.block_records = 0}),
               std::invalid_argument);
  ar::BbxWriter sink(dir_.string());
  EXPECT_THROW(sink.consume({}), std::logic_error);
  sink.begin({"size", "op"}, {"time_us", "aux"}, 0);
  EXPECT_THROW(sink.begin({"size", "op"}, {"time_us", "aux"}, 0),
               std::logic_error);
  RawRecord ragged;  // width mismatch must be rejected up front
  EXPECT_THROW(sink.consume({ragged}), std::invalid_argument);
  sink.close();
  EXPECT_THROW(sink.consume({}), std::logic_error);
  EXPECT_THROW(sink.add_manifest_extra("k", "v"), std::logic_error);
  sink.close();  // idempotent
}

TEST_F(ArchiveBundle, AtomicStagingLeavesNoTmpAndNonAtomicKeepsNames) {
  write_bundle(2, 16);
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), entry.path().filename() ==
                      "manifest.bbx.json" ? ".json" : ".bbx")
        << entry.path() << " left behind";
  }
  EXPECT_TRUE(ar::BbxReader::is_bundle(dir_.string()));
}

TEST_F(ArchiveBundle, UnclosedWriterLeavesOnlyStagedFiles) {
  const Plan plan = small_plan(17);
  {
    ar::BbxWriter sink(dir_.string(), {.shards = 2, .block_records = 4});
    sink.begin({"size", "op"}, {"time_us", "aux"}, plan.size());
    // Simulate a crash: records consumed, close() never reached --
    // suppress the destructor's best-effort close by poisoning... the
    // destructor closes, so test the mid-run state *before* destruction.
    EXPECT_FALSE(ar::BbxReader::is_bundle(dir_.string()));
    EXPECT_TRUE(std::filesystem::exists(dir_ / "shard-000.bbx.tmp"));
    EXPECT_THROW(ar::BbxReader(dir_.string()), std::runtime_error);
    sink.close();
  }
  EXPECT_TRUE(ar::BbxReader::is_bundle(dir_.string()));
}

// --- corruption -------------------------------------------------------------

TEST_F(ArchiveBundle, FlippedByteFailsChecksumWithClearError) {
  write_bundle(1, 16);
  const std::filesystem::path shard = dir_ / "shard-000.bbx";
  std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(40);  // inside the first block payload
  char byte = 0;
  f.seekg(40);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x20);
  f.seekp(40);
  f.write(&byte, 1);
  f.close();

  const ar::BbxReader reader(dir_.string());
  try {
    reader.read_all();
    FAIL() << "corrupt shard must not decode";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST_F(ArchiveBundle, TruncatedShardFailsWithClearError) {
  write_bundle(2, 8);
  const std::filesystem::path shard = dir_ / "shard-001.bbx";
  const auto size = std::filesystem::file_size(shard);
  std::filesystem::resize_file(shard, size / 2);

  const ar::BbxReader reader(dir_.string());
  try {
    reader.read_all();
    FAIL() << "truncated shard must not decode";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST_F(ArchiveBundle, MissingManifestAndMissingShardFailClearly) {
  EXPECT_THROW(ar::BbxReader("/nonexistent-bbx-bundle"), std::runtime_error);
  write_bundle(2, 8);
  std::filesystem::remove(dir_ / "shard-001.bbx");
  const ar::BbxReader reader(dir_.string());
  try {
    reader.read_all();
    FAIL() << "missing shard must not decode";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing shard"), std::string::npos)
        << e.what();
  }
}

TEST_F(ArchiveBundle, TamperedManifestCountsAreRejected) {
  write_bundle(1, 16);
  // Rewrite the manifest with an inflated record count.
  ar::Manifest m = ar::Manifest::load(dir_.string());
  m.total_records += 1;
  {
    std::ofstream out(dir_ / "manifest.bbx.json");
    m.write(out);
  }
  EXPECT_THROW(ar::BbxReader(dir_.string()), std::runtime_error);
}

TEST_F(ArchiveBundle, TamperedManifestHugeOffsetFailsNotCrashes) {
  write_bundle(1, 16);
  // An offset near 2^64 must hit the overflow-safe bounds check, not a
  // wild pointer.
  ar::Manifest m = ar::Manifest::load(dir_.string());
  m.blocks.front().offset = UINT64_MAX - 8;
  {
    std::ofstream out(dir_ / "manifest.bbx.json");
    m.write(out);
  }
  const ar::BbxReader reader(dir_.string());
  try {
    reader.read_all();
    FAIL() << "wild manifest offset must not decode";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST_F(ArchiveBundle, TamperedManifestHugeStoredSizeFailsWithoutAllocating) {
  write_bundle(1, 16);
  // A frame size near 4 GiB must be refused against the shard's real
  // size before any buffer is sized from it -- on the whole-bundle read
  // and on a query scan alike.
  ar::Manifest m = ar::Manifest::load(dir_.string());
  m.blocks.front().stored_bytes = 0xFFFFFF00u;
  {
    std::ofstream out(dir_ / "manifest.bbx.json");
    m.write(out);
  }
  const ar::BbxReader reader(dir_.string());
  const query::BundleQuery bundle(reader);
  query::QuerySpec spec;
  spec.aggregates = {query::Aggregate{query::AggKind::kCount, ""}};
  const long rss_before = peak_rss_kib();
  const auto expect_truncated = [](const auto& read) {
    try {
      read();
      FAIL() << "oversized manifest frame must not decode";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  };
  expect_truncated([&] { reader.read_all(); });
  expect_truncated([&] { bundle.aggregate(spec); });
  EXPECT_LT(peak_rss_kib() - rss_before, 64 * 1024);
}

TEST_F(ArchiveBundle, TamperedManifestWideIntegersAreRejected) {
  write_bundle(1, 16);
  std::ostringstream text;
  ar::Manifest::load(dir_.string()).write(text);
  // 2^32 + 2 and 2^32 would narrow to a valid version 2 and shard 0.
  const auto rejects = [&](const std::string& from, const std::string& to,
                           const std::string& field) {
    std::string tampered = text.str();
    const auto at = tampered.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    tampered.replace(at, from.size(), to);
    std::istringstream in(tampered);
    try {
      ar::Manifest::parse(in);
      FAIL() << field << " above 32 bits must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + field + "'"),
                std::string::npos)
          << e.what();
    }
  };
  rejects("\"version\": 2,", "\"version\": 4294967298,", "version");
  rejects("\"blocks\": [\n    [0, ", "\"blocks\": [\n    [4294967296, ",
          "block shard");
}

// --- campaign integration ---------------------------------------------------

TEST(ArchiveCampaign, RunToDirBbxBundleReadsBackAndAutoDetects) {
  const std::string dir = "/tmp/calipers_archive_campaign_test";
  std::filesystem::remove_all(dir);
  const Plan plan = small_plan(71);
  Metadata md;
  md.set("benchmark", std::string("io_archive_test"));
  const Campaign campaign(plan, small_engine(8), md);
  const MeasureFactory factory = [](std::size_t) {
    return MeasureFn(noisy_measure);
  };

  ArchiveOptions archive;
  archive.format = ArchiveFormat::kBbx;
  archive.shards = 3;
  archive.block_records = 16;
  const StreamedCampaign streamed =
      campaign.run_to_dir(factory, dir, archive);
  EXPECT_EQ(streamed.plan.size(), plan.size());
  EXPECT_EQ(streamed.metadata.get("archive_format"), "bbx");

  // No staging debris, and read_dir auto-detects the bbx results.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  const CampaignResult bundle = CampaignResult::read_dir(dir);
  expect_tables_identical(bundle.table, campaign.run(factory).table);

  // The manifest carries the campaign metadata.
  const ar::Manifest manifest = ar::Manifest::load(dir);
  bool found = false;
  for (const auto& [key, value] : manifest.extra) {
    found = found || (key == "benchmark" && value == "io_archive_test");
  }
  EXPECT_TRUE(found);
  std::filesystem::remove_all(dir);
}

TEST(ArchiveCampaign, FailedCampaignLeavesNoReadableBundle) {
  const std::string dir = "/tmp/calipers_archive_failed_campaign_test";
  std::filesystem::remove_all(dir);
  const Plan plan = small_plan(73);
  const Campaign campaign(plan, small_engine(2), Metadata{});
  const MeasureFactory failing = [](std::size_t) {
    return MeasureFn(
        [](const PlannedRun& run, MeasureContext&) -> MeasureResult {
          if (run.run_index == 9) throw std::runtime_error("instrument died");
          return MeasureResult{{1.0, 2.0}, 1e-6};
        });
  };
  for (const ArchiveFormat format : {ArchiveFormat::kCsv, ArchiveFormat::kBbx}) {
    std::filesystem::remove_all(dir);
    ArchiveOptions archive;
    archive.format = format;
    EXPECT_THROW(campaign.run_to_dir(failing, dir, archive),
                 std::runtime_error);
    // The interrupted bundle must not read back as a complete campaign --
    // not through read_dir, and (bbx) not through a direct BbxReader
    // either: the failed close() must leave the manifest staged.
    EXPECT_THROW(CampaignResult::read_dir(dir), std::runtime_error);
    EXPECT_FALSE(ar::BbxReader::is_bundle(dir));
  }
  std::filesystem::remove_all(dir);
}

TEST(ArchiveCampaign, RearchivingInOtherFormatRemovesStaleResults) {
  const std::string dir = "/tmp/calipers_archive_stale_test";
  std::filesystem::remove_all(dir);
  const Plan plan = small_plan(83);
  const Campaign campaign(plan, small_engine(1), Metadata{});
  const MeasureFactory factory = [](std::size_t) {
    return MeasureFn(noisy_measure);
  };

  campaign.run_to_dir(factory, dir, {.format = ArchiveFormat::kCsv});
  ArchiveOptions bbx;
  bbx.format = ArchiveFormat::kBbx;
  bbx.shards = 2;
  campaign.run_to_dir(factory, dir, bbx);
  // The csv results must be gone, so auto-detection reads the bbx data.
  EXPECT_FALSE(std::filesystem::exists(dir + "/results.csv"));
  EXPECT_TRUE(ar::BbxReader::is_bundle(dir));
  EXPECT_EQ(CampaignResult::read_dir(dir).table.size(), plan.size());

  // And back: re-archiving as csv removes the manifest and every shard.
  campaign.run_to_dir(factory, dir, {.format = ArchiveFormat::kCsv});
  EXPECT_FALSE(ar::BbxReader::is_bundle(dir));
  EXPECT_FALSE(std::filesystem::exists(dir + "/shard-000.bbx"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/shard-001.bbx"));
  EXPECT_EQ(CampaignResult::read_dir(dir).table.size(), plan.size());
  std::filesystem::remove_all(dir);
}

TEST(ArchiveCampaign, WriteDirBbxMatchesCsvBundle) {
  const std::string csv_dir = "/tmp/calipers_archive_write_csv";
  const std::string bbx_dir = "/tmp/calipers_archive_write_bbx";
  std::filesystem::remove_all(csv_dir);
  std::filesystem::remove_all(bbx_dir);
  const Plan plan = small_plan(79);
  Metadata md;
  md.set("benchmark", std::string("write_dir"));
  const Campaign campaign(plan, small_engine(1), md);
  const CampaignResult result = campaign.run(noisy_measure);

  result.write_dir(csv_dir);
  ArchiveOptions archive;
  archive.format = ArchiveFormat::kBbx;
  archive.shards = 2;
  archive.block_records = 8;
  result.write_dir(bbx_dir, archive);

  const CampaignResult csv_back = CampaignResult::read_dir(csv_dir);
  const CampaignResult bbx_back = CampaignResult::read_dir(bbx_dir);
  // Value identity across formats: bbx preserves kinds exactly, the CSV
  // path normalizes through text -- Value equality bridges the two.
  ASSERT_EQ(csv_back.table.size(), bbx_back.table.size());
  for (std::size_t i = 0; i < csv_back.table.size(); ++i) {
    EXPECT_EQ(csv_back.table.records()[i].factors,
              bbx_back.table.records()[i].factors);
    EXPECT_EQ(csv_back.table.records()[i].metrics,
              bbx_back.table.records()[i].metrics);
  }
  std::filesystem::remove_all(csv_dir);
  std::filesystem::remove_all(bbx_dir);
}

TEST(ArchiveCampaign, ParseArchiveFormatFlagValues) {
  EXPECT_EQ(parse_archive_format("csv"), ArchiveFormat::kCsv);
  EXPECT_EQ(parse_archive_format("bbx"), ArchiveFormat::kBbx);
  EXPECT_FALSE(parse_archive_format("gzip").has_value());
  EXPECT_STREQ(to_string(ArchiveFormat::kBbx), "bbx");
  EXPECT_STREQ(to_string(ArchiveFormat::kCsv), "csv");
}

}  // namespace
}  // namespace cal
