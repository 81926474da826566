#include "io/archive/column_codec.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "simd/dispatch.hpp"

namespace cal::io::archive {

namespace {

// Factor-column encodings (one tag byte per column per block).
enum : unsigned char {
  kColInt = 0,     // zigzag-delta varints
  kColReal = 1,    // raw LE doubles
  kColString = 2,  // dictionary + per-record indices
  kColMixed = 3,   // per-value kind tag; strings share the dictionary
};

void encode_delta_column(std::string& out, const RawRecord* records,
                         std::size_t n, std::size_t RawRecord::*field) {
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<std::int64_t>(records[i].*field);
    put_svarint(out, v - prev);
    prev = v;
  }
}

/// Streams a delta-varint payload through the dispatched kernel into
/// the running prefix values (two's-complement bit patterns).
void decode_delta_payload(ByteReader& r, std::size_t n, std::uint64_t* out) {
  const std::size_t used = simd::kernels().delta_varint_decode(
      reinterpret_cast<const unsigned char*>(r.cursor()), r.remaining(), n,
      out);
  if (used == simd::kDecodeError) {
    throw std::runtime_error("bbx: corrupt varint in delta column");
  }
  r.skip(used);
}

std::vector<std::int64_t> decode_i64_column(ByteReader& r, std::size_t n) {
  std::vector<std::int64_t> out(n);
  decode_delta_payload(r, n, reinterpret_cast<std::uint64_t*>(out.data()));
  return out;
}

/// Bulk-decodes n raw LE doubles (bounds-checked borrow, then one
/// dispatched pass instead of eight single-byte loads per value).
std::vector<double> decode_f64_column(ByteReader& r, std::size_t n) {
  const char* src = r.bytes(n * sizeof(double));
  std::vector<double> out(n);
  simd::kernels().f64le_decode(src, n, out.data());
  return out;
}

void write_dictionary(std::string& out,
                      const std::vector<const std::string*>& dict) {
  put_varint(out, dict.size());
  for (const std::string* s : dict) {
    put_varint(out, s->size());
    out.append(*s);
  }
}

std::vector<Value> read_dictionary(ByteReader& r) {
  const std::uint64_t size = r.varint();
  std::vector<Value> dict;
  dict.reserve(std::min<std::uint64_t>(size, r.remaining()));
  for (std::uint64_t i = 0; i < size; ++i) {
    const std::uint64_t len = r.varint();
    dict.emplace_back(std::string(r.bytes(len), len));
  }
  return dict;
}

std::uint32_t read_code(ByteReader& r, std::size_t levels) {
  const std::uint64_t idx = r.varint();
  if (idx >= levels) {
    throw std::runtime_error("bbx: dictionary index out of range");
  }
  return static_cast<std::uint32_t>(idx);
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

  // Dictionary of the block's distinct strings, first-appearance order.
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

Column decode_factor_column(ByteReader& r, std::size_t n) {
  Column col;
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case kColInt:
      col.kind = Column::Kind::kI64;
      col.i64 = decode_i64_column(r, n);
      return col;
    case kColReal:
      col.kind = Column::Kind::kF64;
      col.f64 = decode_f64_column(r, n);
      return col;
    case kColString:
      col.kind = Column::Kind::kCoded;
      col.levels = read_dictionary(r);
      col.codes.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        col.codes[i] = read_code(r, col.levels.size());
      }
      return col;
    case kColMixed: {
      // One level per record, in record order.
      col.kind = Column::Kind::kCoded;
      const std::vector<Value> dict = read_dictionary(r);
      col.codes.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        switch (r.u8()) {
          case 0: col.levels.emplace_back(r.svarint()); break;
          case 1: col.levels.emplace_back(r.f64le()); break;
          case 2: col.levels.push_back(dict[read_code(r, dict.size())]); break;
          default:
            throw std::runtime_error("bbx: unknown mixed-value kind tag");
        }
        col.codes[i] = static_cast<std::uint32_t>(i);
      }
      return col;
    }
    default:
      throw std::runtime_error("bbx: unknown factor column encoding " +
                               std::to_string(tag));
  }
}

}  // namespace

// --- Column -----------------------------------------------------------------

std::size_t Column::size() const noexcept {
  switch (kind) {
    case Kind::kI64: return i64.size();
    case Kind::kF64: return f64.size();
    case Kind::kCoded: return codes.size();
  }
  return 0;
}

Value Column::value_at(std::size_t i) const {
  switch (kind) {
    case Kind::kI64: return Value(i64[i]);
    case Kind::kF64: return Value(f64[i]);
    case Kind::kCoded: return levels[codes[i]];
  }
  return Value();
}

std::size_t Column::bytes() const noexcept {
  std::size_t total = i64.size() * sizeof(std::int64_t) +
                      f64.size() * sizeof(double) +
                      codes.size() * sizeof(std::uint32_t) +
                      levels.size() * sizeof(Value);
  for (const Value& v : levels) {
    if (v.is_string()) total += v.as_string().size();
  }
  return total;
}

// --- BlockView --------------------------------------------------------------

BlockView::BlockView(const std::string& raw, std::size_t n_factors,
                     std::size_t n_metrics)
    : raw_(&raw), n_factors_(n_factors) {
  ByteReader r(raw);
  records_ = r.varint();
  const std::size_t image_factors = r.varint();
  const std::size_t image_metrics = r.varint();
  if (image_factors != n_factors || image_metrics != n_metrics) {
    throw std::runtime_error("bbx: block schema does not match manifest");
  }
  if (records_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("bbx: block record count out of range");
  }
  const std::size_t columns = block_columns(n_factors, n_metrics);
  column_bytes_.reserve(columns);
  for (std::size_t c = 0; c < columns; ++c) {
    column_bytes_.push_back(r.varint());
  }
  payload_start_ = r.position();
  std::size_t total = payload_start_;
  for (const std::size_t bytes : column_bytes_) total += bytes;
  if (total != raw.size()) {
    throw std::runtime_error("bbx: block column sizes disagree with image");
  }
}

ByteReader BlockView::payload(std::size_t id) const {
  if (id >= column_bytes_.size()) {
    throw std::out_of_range("bbx: column id out of range");
  }
  std::size_t start = payload_start_;
  for (std::size_t c = 0; c < id; ++c) start += column_bytes_[c];
  return ByteReader(raw_->data() + start, column_bytes_[id]);
}

Column BlockView::column(std::size_t id) const {
  ByteReader r = payload(id);
  // Every column encoding spends at least one byte per record, so a
  // record count the payload cannot hold is refused before anything is
  // allocated for it.
  if (r.remaining() < records_) {
    throw std::runtime_error("bbx: column payload shorter than its records");
  }
  if (id >= kFirstFactorColumn && id < kFirstFactorColumn + n_factors_) {
    return decode_factor_column(r, records_);
  }
  Column col;
  if (id < kTimestampColumn) {
    col.kind = Column::Kind::kI64;
    col.i64 = decode_i64_column(r, records_);
  } else {
    col.kind = Column::Kind::kF64;
    col.f64 = decode_f64_column(r, records_);
  }
  return col;
}

// --- whole-block encode / decode --------------------------------------------

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
    for (std::size_t i = 0; i < n; ++i) {
      put_f64le(col, records[i].metrics[m]);
    }
  }

  std::string out;
  std::size_t payload_bytes = 0;
  for (const std::string& p : payloads) payload_bytes += p.size();
  out.reserve(payload_bytes + 4 * columns + 16);
  put_varint(out, n);
  put_varint(out, n_factors);
  put_varint(out, n_metrics);
  for (const std::string& p : payloads) put_varint(out, p.size());
  for (const std::string& p : payloads) out.append(p);
  return out;
}

std::vector<RawRecord> decode_block(const std::string& raw,
                                    std::size_t n_factors,
                                    std::size_t n_metrics) {
  const BlockView view(raw, n_factors, n_metrics);
  const std::size_t n = view.records();

  const Column sequence = view.column(kSequenceColumn);
  const Column cell = view.column(kCellColumn);
  const Column replicate = view.column(kReplicateColumn);
  const Column timestamps = view.column(kTimestampColumn);

  std::vector<RawRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].sequence = static_cast<std::size_t>(sequence.i64[i]);
    records[i].cell_index = static_cast<std::size_t>(cell.i64[i]);
    records[i].replicate = static_cast<std::size_t>(replicate.i64[i]);
    records[i].timestamp_s = timestamps.f64[i];
    records[i].factors.reserve(n_factors);
    records[i].metrics.resize(n_metrics);
  }
  for (std::size_t f = 0; f < n_factors; ++f) {
    const Column column = view.column(kFirstFactorColumn + f);
    for (std::size_t i = 0; i < n; ++i) {
      records[i].factors.push_back(column.value_at(i));
    }
  }
  for (std::size_t m = 0; m < n_metrics; ++m) {
    const Column column = view.column(kFirstFactorColumn + n_factors + m);
    for (std::size_t i = 0; i < n; ++i) {
      records[i].metrics[m] = column.f64[i];
    }
  }
  return records;
}

}  // namespace cal::io::archive
