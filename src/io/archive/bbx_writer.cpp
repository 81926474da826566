#include "io/archive/bbx_writer.hpp"

#include <exception>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "io/archive/crc32.hpp"
#include "io/archive/wire.hpp"

namespace cal::io::archive {

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
  BlockStats zones;
  {
    // One pass over the records: bbx.encode_seconds covers the image
    // and the zone map.
    CAL_TIME_SCOPE("bbx.encode_seconds");
    zones = encoder_.encode(pending_.data(), pending_.size(),
                            manifest_.factor_names.size(),
                            manifest_.metric_names.size());
  }
  const std::string& raw = encoder_.image();
  // The frame is the 12-byte header followed by the stored payload; the
  // payload is compressed in place behind the header's placeholder.
  constexpr std::size_t kHeader = 12;
  {
    CAL_TIME_SCOPE("bbx.compress_seconds");
    compressor_.compress(raw.data(), raw.size(), kHeader, frame_);
  }
  const char* const stored = frame_.data() + kHeader;
  const std::size_t stored_size = frame_.size() - kHeader;

  BlockInfo info;
  // Round-robin by *global* block index: a partial bundle's blocks land
  // on the same shards a single-process writer would have used.
  info.shard = static_cast<std::uint32_t>(
      (options_.first_block + manifest_.blocks.size()) % options_.shards);
  info.offset = shard_offsets_[info.shard];
  info.stored_bytes = static_cast<std::uint32_t>(stored_size);
  info.raw_bytes = static_cast<std::uint32_t>(raw.size());
  {
    CAL_TIME_SCOPE("bbx.crc_seconds");
    info.crc32 = crc32(stored, stored_size);
  }
  CAL_COUNT("bbx.blocks_flushed", 1);
  CAL_COUNT("bbx.records_flushed", pending_.size());
  CAL_COUNT("bbx.bytes_raw", raw.size());
  CAL_COUNT("bbx.bytes_stored", stored_size);
  info.first_sequence = pending_.front().sequence;
  info.records = static_cast<std::uint32_t>(pending_.size());

  // Header: sizes + checksum repeated in the shard itself, so a shard is
  // walkable (and corruption localizable) even without the manifest.
  char* header = frame_.data();
  header = store_u32le(header, info.stored_bytes);
  header = store_u32le(header, info.raw_bytes);
  store_u32le(header, info.crc32);

  std::ofstream& out = shards_[info.shard];
  CAL_FAULT_WRITE("bbx.flush_block", out, frame_.data(), frame_.size());
  if (!out) {
    throw std::runtime_error("BbxWriter: write failed on shard " +
                             std::to_string(info.shard));
  }
  shard_offsets_[info.shard] += frame_.size();
  records_ += pending_.size();
  manifest_.blocks.push_back(info);
  manifest_.zones.push_back(std::move(zones));
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
