#include "io/archive/bbx_reader.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/archive/block_codec.hpp"
#include "io/archive/bbx_writer.hpp"  // kShardMagic
#include "io/archive/column_codec.hpp"
#include "io/archive/crc32.hpp"
#include "io/archive/wire.hpp"

namespace cal::io::archive {

BbxReader::BbxReader(std::string dir)
    : dir_(std::move(dir)), manifest_(Manifest::load(dir_)) {
  std::uint64_t indexed = 0;
  for (const BlockInfo& b : manifest_.blocks) {
    if (b.shard >= manifest_.shard_count) {
      throw std::runtime_error("bbx: block references shard " +
                               std::to_string(b.shard) + " of " +
                               std::to_string(manifest_.shard_count));
    }
    indexed += b.records;
  }
  if (indexed != manifest_.total_records) {
    throw std::runtime_error(
        "bbx: manifest block index covers " + std::to_string(indexed) +
        " records but declares " + std::to_string(manifest_.total_records));
  }
}

bool BbxReader::is_bundle(const std::string& dir) {
  return std::filesystem::exists(dir + "/" +
                                 std::string(Manifest::file_name()));
}

std::vector<std::string> BbxReader::load_shards() const {
  std::vector<std::string> shards;
  shards.reserve(manifest_.shard_count);
  for (std::size_t s = 0; s < manifest_.shard_count; ++s) {
    const std::string path = dir_ + "/" + Manifest::shard_file_name(s);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("bbx: missing shard '" + path + "'");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    if (bytes.size() < sizeof kShardMagic ||
        std::memcmp(bytes.data(), kShardMagic, sizeof kShardMagic) != 0) {
      throw std::runtime_error("bbx: '" + path + "' is not a bbx shard");
    }
    shards.push_back(std::move(bytes));
  }
  return shards;
}

std::string BbxReader::decode_frame(const char* frame, std::size_t index) const {
  const BlockInfo& info = manifest_.blocks[index];
  const std::string where = "block " + std::to_string(index) + " of shard '" +
                            Manifest::shard_file_name(info.shard) + "'";
  ByteReader header(frame, 12);
  const std::uint32_t stored_bytes = header.u32le();
  const std::uint32_t raw_bytes = header.u32le();
  const std::uint32_t crc = header.u32le();
  if (stored_bytes != info.stored_bytes || raw_bytes != info.raw_bytes ||
      crc != info.crc32) {
    throw std::runtime_error("bbx: frame header of " + where +
                             " disagrees with the manifest (corrupt frame)");
  }
  const char* payload = frame + 12;
  if (crc32(payload, info.stored_bytes) != info.crc32) {
    throw std::runtime_error("bbx: checksum mismatch in " + where +
                             " (corrupt block payload)");
  }
  return block_decompress(payload, info.stored_bytes, info.raw_bytes);
}

std::string BbxReader::fetch_block(const std::vector<std::string>& shards,
                                   std::size_t index) const {
  const BlockInfo& info = manifest_.blocks[index];
  const std::string& shard = shards[info.shard];
  // Overflow-safe bounds check: a tampered manifest can carry offsets
  // near 2^64, so never compute offset + frame on the left-hand side.
  if (shard.size() < 12 || info.offset > shard.size() - 12 ||
      info.stored_bytes > shard.size() - 12 - info.offset) {
    throw std::runtime_error(
        "bbx: shard truncated at block " + std::to_string(index) +
        " of shard '" + Manifest::shard_file_name(info.shard) +
        "' (file shorter than the manifest's index)");
  }
  return decode_frame(shard.data() + info.offset, index);
}

void BbxReader::for_each_block(
    core::WorkerPool* pool,
    const std::function<void(std::size_t)>& body) const {
  const std::size_t blocks = manifest_.blocks.size();
  if (pool && pool->size() > 1 && blocks > 1) {
    pool->run_indexed(blocks,
                      [&](std::size_t /*worker*/, std::size_t index) {
                        body(index);
                      });
  } else {
    for (std::size_t i = 0; i < blocks; ++i) body(i);
  }
}

void BbxReader::scan_blocks(
    const std::vector<std::size_t>& blocks, core::WorkerPool* pool,
    const std::function<void(std::size_t, std::size_t, const std::string&)>&
        body) const {
  for (const std::size_t block : blocks) {
    if (block >= manifest_.blocks.size()) {
      throw std::out_of_range("bbx: scan of unknown block " +
                              std::to_string(block));
    }
  }
  if (blocks.empty()) return;

  // Read only the selected blocks' frames: the whole point of pruning is
  // that a selective query must not pay whole-bundle I/O.  Frames are
  // fetched per shard in offset order (one open, forward seeks), then
  // verified + decompressed + decoded in parallel.
  std::vector<std::string> frames(blocks.size());
  std::vector<std::vector<std::size_t>> by_shard(manifest_.shard_count);
  for (std::size_t ordinal = 0; ordinal < blocks.size(); ++ordinal) {
    by_shard[manifest_.blocks[blocks[ordinal]].shard].push_back(ordinal);
  }
  for (std::size_t s = 0; s < by_shard.size(); ++s) {
    std::vector<std::size_t>& ordinals = by_shard[s];
    if (ordinals.empty()) continue;
    const std::string path = dir_ + "/" + Manifest::shard_file_name(s);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("bbx: missing shard '" + path + "'");
    }
    char magic[sizeof kShardMagic];
    if (!in.read(magic, sizeof magic) ||
        std::memcmp(magic, kShardMagic, sizeof magic) != 0) {
      throw std::runtime_error("bbx: '" + path + "' is not a bbx shard");
    }
    std::sort(ordinals.begin(), ordinals.end(),
              [&](std::size_t a, std::size_t b) {
                return manifest_.blocks[blocks[a]].offset <
                       manifest_.blocks[blocks[b]].offset;
              });
    for (const std::size_t ordinal : ordinals) {
      const BlockInfo& info = manifest_.blocks[blocks[ordinal]];
      const std::size_t frame_bytes = 12 + std::size_t{info.stored_bytes};
      std::string& frame = frames[ordinal];
      frame.resize(frame_bytes);
      in.seekg(static_cast<std::streamoff>(info.offset));
      if (!in.read(frame.data(), static_cast<std::streamsize>(frame_bytes))) {
        throw std::runtime_error(
            "bbx: shard truncated at block " +
            std::to_string(blocks[ordinal]) + " of shard '" +
            Manifest::shard_file_name(s) +
            "' (file shorter than the manifest's index)");
      }
    }
  }

  const auto scan_one = [&](std::size_t ordinal) {
    body(ordinal, blocks[ordinal],
         decode_frame(frames[ordinal].data(), blocks[ordinal]));
  };
  if (pool && pool->size() > 1 && blocks.size() > 1) {
    pool->run_indexed(blocks.size(),
                      [&](std::size_t /*worker*/, std::size_t ordinal) {
                        scan_one(ordinal);
                      });
  } else {
    for (std::size_t i = 0; i < blocks.size(); ++i) scan_one(i);
  }
}

RawTable BbxReader::read_all(core::WorkerPool* pool) const {
  const std::vector<std::string> shards = load_shards();
  std::vector<std::vector<RawRecord>> slots(manifest_.blocks.size());
  for_each_block(pool, [&](std::size_t index) {
    const std::string raw = fetch_block(shards, index);
    std::vector<RawRecord> records = decode_block(
        raw, manifest_.factor_names.size(), manifest_.metric_names.size());
    if (records.size() != manifest_.blocks[index].records) {
      throw std::runtime_error("bbx: block " + std::to_string(index) +
                               " decoded to the wrong record count");
    }
    slots[index] = std::move(records);
  });

  RawTable table(manifest_.factor_names, manifest_.metric_names);
  table.reserve(manifest_.total_records);
  for (std::vector<RawRecord>& block : slots) {
    table.append_batch(std::move(block));
  }
  return table;
}

std::vector<Column> BbxReader::column_blocks(std::size_t id,
                                             core::WorkerPool* pool) const {
  const std::vector<std::string> shards = load_shards();
  std::vector<Column> slots(manifest_.blocks.size());
  for_each_block(pool, [&](std::size_t index) {
    const std::string raw = fetch_block(shards, index);
    slots[index] = BlockView(raw, manifest_.factor_names.size(),
                             manifest_.metric_names.size())
                       .column(id);
  });
  return slots;
}

std::vector<Value> BbxReader::factor_column(const std::string& name,
                                            core::WorkerPool* pool) const {
  const auto& names = manifest_.factor_names;
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) {
    throw std::out_of_range("bbx: unknown factor '" + name + "'");
  }
  const std::size_t id = kFirstFactorColumn + (it - names.begin());
  std::vector<Value> out;
  out.reserve(manifest_.total_records);
  for (const Column& block : column_blocks(id, pool)) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      out.push_back(block.value_at(i));
    }
  }
  return out;
}

std::vector<double> BbxReader::metric_column(const std::string& name,
                                             core::WorkerPool* pool) const {
  const auto& names = manifest_.metric_names;
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) {
    throw std::out_of_range("bbx: unknown metric '" + name + "'");
  }
  const std::size_t id =
      kFirstFactorColumn + manifest_.factor_names.size() + (it - names.begin());
  std::vector<double> out;
  out.reserve(manifest_.total_records);
  for (const Column& block : column_blocks(id, pool)) {
    out.insert(out.end(), block.f64.begin(), block.f64.end());
  }
  return out;
}

}  // namespace cal::io::archive
