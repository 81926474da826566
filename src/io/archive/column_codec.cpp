#include "io/archive/column_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string_view>
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

/// The single-kind column encoding (and the mixed encoding's per-value
/// tag) for a value kind; spelled out so the on-disk tags do not follow
/// ValueKind's declaration order.
constexpr unsigned char encoding_of(ValueKind kind) {
  switch (kind) {
    case ValueKind::kInt: return kColInt;
    case ValueKind::kReal: return kColReal;
    case ValueKind::kString: return kColString;
  }
  return kColMixed;
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

// --- BlockEncoder ------------------------------------------------------------

namespace {

/// Worst-case payload bytes per record: a delta varint, a raw double,
/// a mixed-kind value (tag + varint).
constexpr std::size_t kVarintBytes = 10;
constexpr std::size_t kDoubleBytes = 8;
constexpr std::size_t kMixedBytes = 1 + kVarintBytes;

inline std::size_t varint_size(std::uint64_t v) {
  std::size_t bytes = 1;
  for (; v >= 0x80; v >>= 7) ++bytes;
  return bytes;
}

/// Zigzag-varint delta of v from prev, wrapping like the decoder's
/// running sum.
inline char* store_delta(char* p, std::uint64_t v, std::uint64_t prev) {
  return store_svarint(p, static_cast<std::int64_t>(v - prev));
}

/// Running [min, max] of a numeric column, folded as std::min/std::max
/// from the first value on, and whether every value was finite.
struct NumericZone {
  double min = 0.0;
  double max = 0.0;
  bool finite = true;

  void seed(double d) { min = max = d; }
  void fold(double d) {
    min = d < min ? d : min;
    max = max < d ? d : max;
    finite &= std::isfinite(d);
  }
  ColumnStats stats() const {
    ColumnStats out;
    if (finite) {
      out.kind = ColumnStats::Kind::kNumeric;
      out.min = min;
      out.max = max;
    }
    return out;
  }
};

ColumnStats integer_zone(std::uint64_t min, std::uint64_t max) {
  ColumnStats out;
  out.kind = ColumnStats::Kind::kNumeric;
  out.min = static_cast<double>(min);
  out.max = static_cast<double>(max);
  return out;
}

/// A block column's distinct strings in first-appearance order (the
/// codes the image stores), one hash lookup per record.  Holds pointers
/// into the records being encoded.
class Dictionary {
 public:
  std::uint32_t code(const std::string& s) {
    const auto [it, added] = index_.try_emplace(
        std::string_view(s), static_cast<std::uint32_t>(levels_.size()));
    if (added) levels_.push_back(&s);
    return it->second;
  }

  const std::vector<const std::string*>& levels() const noexcept {
    return levels_;
  }

  void clear() {
    levels_.clear();
    index_.clear();
  }

  /// Bytes of the serialized dictionary (count, then length + bytes).
  std::size_t bytes() const {
    std::size_t total = varint_size(levels_.size());
    for (const std::string* s : levels_) {
      total += varint_size(s->size()) + s->size();
    }
    return total;
  }

  char* store(char* p) const {
    p = store_varint(p, levels_.size());
    for (const std::string* s : levels_) {
      p = store_varint(p, s->size());
      std::memcpy(p, s->data(), s->size());
      p += s->size();
    }
    return p;
  }

 private:
  std::vector<const std::string*> levels_;
  std::unordered_map<std::string_view, std::uint32_t> index_;
};

}  // namespace

/// One factor column of the block being encoded.  The encoding follows
/// record 0's kind -- delta varints for ints, raw doubles for reals,
/// dictionary codes for strings -- and the first record of another kind
/// re-encodes the column so far as mixed (rare: a factor's kind is
/// almost always fixed by its plan), which is the choice the whole
/// block's kinds decide.
struct BlockEncoder::Factor {
  unsigned char encoding = kColMixed;
  bool any_string = false;
  std::uint64_t prev = 0;  ///< kColInt: the previous value, as bits
  Dictionary dict;
  NumericZone zone;

  void reset(const Value& first) {
    encoding = encoding_of(first.kind());
    any_string = false;
    prev = 0;
    dict.clear();
    zone = NumericZone{};
    if (!first.is_string()) zone.seed(first.as_real());
  }

  char* store(char* p, const Value& v, ValueKind kind) {
    switch (kind) {
      case ValueKind::kInt: {
        const std::int64_t x = v.as_int();
        zone.fold(static_cast<double>(x));
        if (encoding == kColInt) {
          p = store_delta(p, static_cast<std::uint64_t>(x), prev);
          prev = static_cast<std::uint64_t>(x);
          return p;
        }
        *p++ = static_cast<char>(kColInt);
        return store_svarint(p, x);
      }
      case ValueKind::kReal: {
        const double x = v.as_real();
        zone.fold(x);
        if (encoding != kColReal) *p++ = static_cast<char>(kColReal);
        return store_f64le(p, x);
      }
      case ValueKind::kString: {
        any_string = true;
        const std::uint32_t code = dict.code(v.as_string());
        if (encoding != kColString) *p++ = static_cast<char>(kColString);
        return store_varint(p, code);
      }
    }
    return p;
  }

  /// Rewrites records[0, i) of column f as mixed from `begin` on; folding
  /// them into the zone and dictionary again changes neither.
  char* restart_mixed(char* begin, const RawRecord* records, std::size_t i,
                      std::size_t f) {
    encoding = kColMixed;
    char* p = begin;
    for (std::size_t j = 0; j < i; ++j) {
      const Value& v = records[j].factors[f];
      p = store(p, v, v.kind());
    }
    return p;
  }

  ColumnStats stats() const {
    if (encoding == kColString) {
      const auto& levels = dict.levels();
      if (levels.size() > kZoneMaxLevels) return ColumnStats{};
      ColumnStats out;
      out.kind = ColumnStats::Kind::kStrings;
      out.levels.reserve(levels.size());
      for (const std::string* level : levels) out.levels.push_back(*level);
      std::sort(out.levels.begin(), out.levels.end());
      return out;
    }
    return any_string ? ColumnStats{} : zone.stats();
  }
};

BlockEncoder::BlockEncoder() = default;
BlockEncoder::~BlockEncoder() = default;

BlockStats BlockEncoder::encode(const RawRecord* records, std::size_t n,
                                std::size_t n_factors,
                                std::size_t n_metrics) {
  const std::size_t columns = block_columns(n_factors, n_metrics);
  BlockStats zones;
  zones.columns.resize(columns);

  // Column payloads in id order, each in a region of its worst case.
  const auto is_factor = [&](std::size_t c) {
    return c >= kFirstFactorColumn && c < kFirstFactorColumn + n_factors;
  };
  const auto worst_case = [&](std::size_t c) {
    return c < kTimestampColumn ? kVarintBytes
           : is_factor(c)       ? kMixedBytes
                                : kDoubleBytes;
  };
  std::size_t per_record = 0;
  for (std::size_t c = 0; c < columns; ++c) per_record += worst_case(c);
  if (scratch_.size() < n * per_record) scratch_.resize(n * per_record);
  std::vector<char*> begin(columns);
  char* region = scratch_.data();
  for (std::size_t c = 0; c < columns; ++c) {
    begin[c] = region;
    region += n * worst_case(c);
  }
  std::vector<char*> at = begin;  // bump pointers; the end once encoded
  char** const factor_at = at.data() + kFirstFactorColumn;
  char** const metric_at = factor_at + n_factors;
  char* sequence_at = begin[kSequenceColumn];
  char* cell_at = begin[kCellColumn];
  char* replicate_at = begin[kReplicateColumn];
  char* timestamp_at = begin[kTimestampColumn];

  factors_.resize(n_factors);
  std::vector<NumericZone> metric_zones(n_metrics);
  std::uint64_t prev_sequence = 0, prev_cell = 0, prev_replicate = 0;
  std::uint64_t min_sequence = 0, max_sequence = 0, min_cell = 0,
                max_cell = 0, min_replicate = 0, max_replicate = 0;
  NumericZone timestamp_zone;
  if (n > 0) {
    const RawRecord& first = records[0];
    min_sequence = max_sequence = first.sequence;
    min_cell = max_cell = first.cell_index;
    min_replicate = max_replicate = first.replicate;
    timestamp_zone.seed(first.timestamp_s);
    for (std::size_t f = 0; f < n_factors; ++f) {
      factors_[f].reset(first.factors[f]);
    }
    for (std::size_t m = 0; m < n_metrics; ++m) {
      metric_zones[m].seed(first.metrics[m]);
    }
  } else {
    for (Factor& factor : factors_) factor = Factor{};  // mixed, no levels
  }

  for (std::size_t i = 0; i < n; ++i) {
    const RawRecord& r = records[i];
    sequence_at = store_delta(sequence_at, r.sequence, prev_sequence);
    cell_at = store_delta(cell_at, r.cell_index, prev_cell);
    replicate_at = store_delta(replicate_at, r.replicate, prev_replicate);
    prev_sequence = r.sequence;
    prev_cell = r.cell_index;
    prev_replicate = r.replicate;
    min_sequence = std::min<std::uint64_t>(min_sequence, r.sequence);
    max_sequence = std::max<std::uint64_t>(max_sequence, r.sequence);
    min_cell = std::min<std::uint64_t>(min_cell, r.cell_index);
    max_cell = std::max<std::uint64_t>(max_cell, r.cell_index);
    min_replicate = std::min<std::uint64_t>(min_replicate, r.replicate);
    max_replicate = std::max<std::uint64_t>(max_replicate, r.replicate);
    timestamp_at = store_f64le(timestamp_at, r.timestamp_s);
    timestamp_zone.fold(r.timestamp_s);

    const Value* values = r.factors.data();
    for (std::size_t f = 0; f < n_factors; ++f) {
      Factor& factor = factors_[f];
      const ValueKind kind = values[f].kind();
      if (encoding_of(kind) != factor.encoding &&
          factor.encoding != kColMixed) [[unlikely]] {
        factor_at[f] = factor.restart_mixed(begin[kFirstFactorColumn + f],
                                            records, i, f);
      }
      factor_at[f] = factor.store(factor_at[f], values[f], kind);
    }
    const double* metrics = r.metrics.data();
    for (std::size_t m = 0; m < n_metrics; ++m) {
      metric_at[m] = store_f64le(metric_at[m], metrics[m]);
      metric_zones[m].fold(metrics[m]);
    }
  }

  // Zone maps; an empty block prunes nothing.
  if (n > 0) {
    zones.columns[kSequenceColumn] = integer_zone(min_sequence, max_sequence);
    zones.columns[kCellColumn] = integer_zone(min_cell, max_cell);
    zones.columns[kReplicateColumn] =
        integer_zone(min_replicate, max_replicate);
    zones.columns[kTimestampColumn] = timestamp_zone.stats();
    for (std::size_t f = 0; f < n_factors; ++f) {
      zones.columns[kFirstFactorColumn + f] = factors_[f].stats();
    }
    for (std::size_t m = 0; m < n_metrics; ++m) {
      zones.columns[kFirstFactorColumn + n_factors + m] =
          metric_zones[m].stats();
    }
  }

  // Image: counts, the column size table, then the payloads; a factor
  // payload is its encoding tag, the dictionary (string and mixed
  // encodings), then the per-record body.
  at[kSequenceColumn] = sequence_at;
  at[kCellColumn] = cell_at;
  at[kReplicateColumn] = replicate_at;
  at[kTimestampColumn] = timestamp_at;
  const auto has_dictionary = [&](std::size_t c) {
    if (!is_factor(c)) return false;
    const unsigned char encoding = factors_[c - kFirstFactorColumn].encoding;
    return encoding == kColString || encoding == kColMixed;
  };
  std::vector<std::size_t> column_bytes(columns);
  std::size_t image_bytes = (3 + columns) * kVarintBytes;
  for (std::size_t c = 0; c < columns; ++c) {
    column_bytes[c] = static_cast<std::size_t>(at[c] - begin[c]);
    if (is_factor(c)) {
      column_bytes[c] += 1;
      if (has_dictionary(c)) {
        column_bytes[c] += factors_[c - kFirstFactorColumn].dict.bytes();
      }
    }
    image_bytes += column_bytes[c];
  }
  image_.resize(image_bytes);
  char* p = image_.data();
  p = store_varint(p, n);
  p = store_varint(p, n_factors);
  p = store_varint(p, n_metrics);
  for (const std::size_t bytes : column_bytes) p = store_varint(p, bytes);
  for (std::size_t c = 0; c < columns; ++c) {
    if (is_factor(c)) {
      const Factor& factor = factors_[c - kFirstFactorColumn];
      *p++ = static_cast<char>(factor.encoding);
      if (has_dictionary(c)) p = factor.dict.store(p);
    }
    const auto body = static_cast<std::size_t>(at[c] - begin[c]);
    if (body != 0) std::memcpy(p, begin[c], body);
    p += body;
  }
  image_.resize(static_cast<std::size_t>(p - image_.data()));
  return zones;
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

  std::vector<Column> factor_columns;
  factor_columns.reserve(n_factors);
  for (std::size_t f = 0; f < n_factors; ++f) {
    factor_columns.push_back(view.column(kFirstFactorColumn + f));
  }
  std::vector<Value> factors(n_factors);
  std::vector<RawRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].sequence = static_cast<std::size_t>(sequence.i64[i]);
    records[i].cell_index = static_cast<std::size_t>(cell.i64[i]);
    records[i].replicate = static_cast<std::size_t>(replicate.i64[i]);
    records[i].timestamp_s = timestamps.f64[i];
    for (std::size_t f = 0; f < n_factors; ++f) {
      factors[f] = factor_columns[f].value_at(i);
    }
    records[i].factors = FactorRow(std::span<const Value>(factors));
    records[i].metrics.resize(n_metrics);
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
