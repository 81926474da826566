#include "io/archive/bbx_writer.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "io/archive/block_codec.hpp"
#include "io/archive/column_codec.hpp"
#include "io/archive/crc32.hpp"
#include "io/archive/wire.hpp"

namespace cal::io::archive {

namespace {

/// Numeric zone over already-widened doubles; degrades to kNone when any
/// value is non-finite (JSON cannot carry inf/nan, and a NaN row defeats
/// interval pruning anyway).
template <typename Values>
ColumnStats numeric_stats(const Values& values) {
  if (values.empty()) return ColumnStats{};  // no front() to seed from
  ColumnStats stats;
  stats.kind = ColumnStats::Kind::kNumeric;
  stats.min = stats.max = static_cast<double>(values.front());
  for (const auto v : values) {
    const double d = static_cast<double>(v);
    if (!std::isfinite(d)) return ColumnStats{};
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
  }
  return stats;
}

/// Zone map of one factor column: numeric [min, max] when every value in
/// the block is numeric, level membership when every value is a string
/// (capped at kZoneMaxLevels distinct levels), kNone for mixed blocks.
ColumnStats factor_stats(const std::vector<RawRecord>& records,
                         std::size_t col) {
  if (records.empty()) return ColumnStats{};  // no front() to seed from
  bool any_numeric = false, any_string = false;
  for (const RawRecord& r : records) {
    (r.factors[col].is_string() ? any_string : any_numeric) = true;
  }
  if (any_numeric && !any_string) {
    ColumnStats stats;
    stats.kind = ColumnStats::Kind::kNumeric;
    stats.min = stats.max = records.front().factors[col].as_real();
    for (const RawRecord& r : records) {
      const double d = r.factors[col].as_real();
      if (!std::isfinite(d)) return ColumnStats{};
      stats.min = std::min(stats.min, d);
      stats.max = std::max(stats.max, d);
    }
    return stats;
  }
  if (any_string && !any_numeric) {
    // At most kZoneMaxLevels distinct levels: a linear scan of them is
    // cheaper per record than a tree insert, and copies nothing.
    std::vector<const std::string*> levels;
    for (const RawRecord& r : records) {
      const std::string& level = r.factors[col].as_string();
      if (std::none_of(levels.begin(), levels.end(),
                       [&](const std::string* seen) { return *seen == level; })) {
        if (levels.size() == kZoneMaxLevels) return ColumnStats{};
        levels.push_back(&level);
      }
    }
    std::sort(levels.begin(), levels.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    ColumnStats stats;
    stats.kind = ColumnStats::Kind::kStrings;
    stats.levels.reserve(levels.size());
    for (const std::string* level : levels) stats.levels.push_back(*level);
    return stats;
  }
  return ColumnStats{};
}

}  // namespace

BlockStats compute_block_stats(const std::vector<RawRecord>& records,
                               std::size_t n_factors, std::size_t n_metrics) {
  BlockStats stats;
  stats.columns.reserve(4 + n_factors + n_metrics);
  std::vector<double> scratch(records.size());
  const auto bookkeeping = [&](auto&& field) -> ColumnStats {
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
    stats.columns.push_back(bookkeeping(
        [m](const RawRecord& r) { return r.metrics[m]; }));
  }
  return stats;
}

BbxWriter::BbxWriter(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.shards == 0) {
    throw std::invalid_argument("BbxWriter: shards must be >= 1");
  }
  if (options_.block_records == 0) {
    throw std::invalid_argument("BbxWriter: block_records must be >= 1");
  }
}

BbxWriter::~BbxWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; close() explicitly to observe errors.
  }
}

std::string BbxWriter::staged_name(const std::string& final_name) const {
  return options_.atomic ? final_name + ".tmp" : final_name;
}

void BbxWriter::begin(const std::vector<std::string>& factor_names,
                      const std::vector<std::string>& metric_names,
                      std::size_t /*expected_records*/) {
  if (begun_) throw std::logic_error("BbxWriter: begin() called twice");
  if (closed_) throw std::logic_error("BbxWriter: begin() after close()");
  begun_ = true;
  manifest_.factor_names = factor_names;
  manifest_.metric_names = metric_names;
  manifest_.shard_count = options_.shards;
  manifest_.block_records = options_.block_records;

  std::filesystem::create_directories(dir_);
  shards_.reserve(options_.shards);
  shard_offsets_.assign(options_.shards, sizeof kShardMagic);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    const std::string path =
        dir_ + "/" + staged_name(Manifest::shard_file_name(s));
    auto& out = shards_.emplace_back(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("BbxWriter: cannot create '" + path + "'");
    }
    out.write(kShardMagic, sizeof kShardMagic);
  }
  pending_.reserve(options_.block_records);
}

void BbxWriter::consume(std::vector<RawRecord> batch) {
  if (!begun_) throw std::logic_error("BbxWriter: consume() before begin()");
  if (closed_) throw std::logic_error("BbxWriter: consume() after close()");
  for (RawRecord& record : batch) {
    if (record.factors.size() != manifest_.factor_names.size() ||
        record.metrics.size() != manifest_.metric_names.size()) {
      throw std::invalid_argument("BbxWriter: record width mismatch");
    }
    pending_.push_back(std::move(record));
    if (pending_.size() == options_.block_records) flush_block();
  }
}

void BbxWriter::flush_block() {
  if (pending_.empty()) return;
  CAL_SPAN("bbx.flush_block");
  {
    CAL_TIME_SCOPE("bbx.encode_seconds");
    scratch_raw_ = encode_block(pending_.data(), pending_.size(),
                                manifest_.factor_names.size(),
                                manifest_.metric_names.size());
  }
  // The frame is the 12-byte header followed by the stored payload; the
  // payload is compressed in place behind the header's placeholder.
  constexpr std::size_t kHeader = 12;
  std::string frame;
  {
    CAL_TIME_SCOPE("bbx.compress_seconds");
    frame = block_compress(scratch_raw_, kHeader);
  }
  const char* const stored = frame.data() + kHeader;
  const std::size_t stored_size = frame.size() - kHeader;

  BlockInfo info;
  // Round-robin by *global* block index: a partial bundle's blocks land
  // on the same shards a single-process writer would have used.
  info.shard = static_cast<std::uint32_t>(
      (options_.first_block + manifest_.blocks.size()) % options_.shards);
  info.offset = shard_offsets_[info.shard];
  info.stored_bytes = static_cast<std::uint32_t>(stored_size);
  info.raw_bytes = static_cast<std::uint32_t>(scratch_raw_.size());
  {
    CAL_TIME_SCOPE("bbx.crc_seconds");
    info.crc32 = crc32(stored, stored_size);
  }
  CAL_COUNT("bbx.blocks_flushed", 1);
  CAL_COUNT("bbx.records_flushed", pending_.size());
  CAL_COUNT("bbx.bytes_raw", scratch_raw_.size());
  CAL_COUNT("bbx.bytes_stored", stored_size);
  info.first_sequence = pending_.front().sequence;
  info.records = static_cast<std::uint32_t>(pending_.size());

  // Header: sizes + checksum repeated in the shard itself, so a shard is
  // walkable (and corruption localizable) even without the manifest.
  std::string header;
  put_u32le(header, info.stored_bytes);
  put_u32le(header, info.raw_bytes);
  put_u32le(header, info.crc32);
  frame.replace(0, kHeader, header);

  std::ofstream& out = shards_[info.shard];
  CAL_FAULT_WRITE("bbx.flush_block", out, frame.data(), frame.size());
  if (!out) {
    throw std::runtime_error("BbxWriter: write failed on shard " +
                             std::to_string(info.shard));
  }
  shard_offsets_[info.shard] += frame.size();
  records_ += pending_.size();
  manifest_.blocks.push_back(info);
  manifest_.zones.push_back(compute_block_stats(
      pending_, manifest_.factor_names.size(),
      manifest_.metric_names.size()));
  pending_.clear();
}

void BbxWriter::add_manifest_extra(const std::string& key,
                                   const std::string& value) {
  if (closed_) {
    throw std::logic_error("BbxWriter: add_manifest_extra() after close()");
  }
  manifest_.extra.emplace_back(key, value);
}

void BbxWriter::close() {
  if (closed_) return;
  if (!begun_) {
    // Nothing was ever opened; a no-op close keeps the sink contract.
    closed_ = true;
    return;
  }
  closed_ = true;
  flush_block();
  manifest_.total_records = records_;

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].flush();
    if (!shards_[s]) {
      throw std::runtime_error("BbxWriter: flush failed on shard " +
                               std::to_string(s));
    }
    shards_[s].close();
  }

  const std::string manifest_path =
      dir_ + "/" + staged_name(Manifest::file_name());
  {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("BbxWriter: cannot create '" + manifest_path +
                               "'");
    }
    // Serialize to memory first so the failpoint sees one write seam
    // covering the whole manifest (a torn manifest is a torn file, not a
    // syntactically valid half-index).
    std::ostringstream image;
    manifest_.write(image);
    const std::string bytes = image.str();
    CAL_FAULT_WRITE("bbx.write_manifest", out, bytes.data(), bytes.size());
    out.flush();
    if (!out) {
      throw std::runtime_error("BbxWriter: manifest write failed");
    }
  }

  if (options_.atomic) {
    // A close() reached during exception unwinding is the engine
    // finalizing a *failed* campaign (the RecordSink contract): flush
    // what arrived, but leave everything under its staged name -- a
    // truncated bundle must never be published as complete.
    if (std::uncaught_exceptions() > 0) return;
    // Shards first, manifest last: the manifest's existence is the
    // bundle's completeness marker, so it must never appear before every
    // shard it indexes is in place.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      CAL_FAULT_POINT("bbx.rename_shard");
      const std::string name = Manifest::shard_file_name(s);
      std::filesystem::rename(dir_ + "/" + staged_name(name),
                              dir_ + "/" + name);
    }
    CAL_FAULT_POINT("bbx.publish_manifest");
    std::filesystem::rename(manifest_path,
                            dir_ + "/" + std::string(Manifest::file_name()));
  }
}

}  // namespace cal::io::archive
