#include "io/archive/manifest.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/value.hpp"

namespace cal::io::archive {

namespace {

// --- JSON writing -----------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_string_array(std::ostream& out,
                        const std::vector<std::string>& items) {
  out << "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out << ", ";
    out << '"' << json_escape(items[i]) << '"';
  }
  out << "]";
}

/// Round-trip numeric form: integers print without a point, everything
/// else with enough digits that std::stod reproduces the double exactly.
std::string json_number(double v) { return format_real(v); }

void write_zone_entry(std::ostream& out, const ColumnStats& stats) {
  switch (stats.kind) {
    case ColumnStats::Kind::kNone:
      out << "null";
      break;
    case ColumnStats::Kind::kNumeric:
      out << "[" << json_number(stats.min) << ", " << json_number(stats.max)
          << "]";
      break;
    case ColumnStats::Kind::kStrings:
      out << "{\"levels\": ";
      write_string_array(out, stats.levels);
      out << "}";
      break;
  }
}

// --- JSON parsing (the writer's subset) -------------------------------------

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
  enum class Kind { kNull, kUInt, kInt, kReal, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  std::uint64_t uint_v = 0;
  std::int64_t int_v = 0;
  double real_v = 0.0;
  std::string string_v;
  std::shared_ptr<JsonArray> array_v;
  std::shared_ptr<JsonObject> object_v;

  std::uint64_t as_uint(const std::string& what) const {
    if (kind == Kind::kUInt) return uint_v;
    if (kind == Kind::kInt && int_v >= 0) {
      return static_cast<std::uint64_t>(int_v);
    }
    throw std::runtime_error("bbx manifest: '" + what +
                             "' is not a non-negative integer");
  }
  double as_real(const std::string& what) const {
    if (kind == Kind::kReal) return real_v;
    if (kind == Kind::kUInt) return static_cast<double>(uint_v);
    if (kind == Kind::kInt) return static_cast<double>(int_v);
    throw std::runtime_error("bbx manifest: '" + what + "' is not a number");
  }
  const std::string& as_string(const std::string& what) const {
    if (kind != Kind::kString) {
      throw std::runtime_error("bbx manifest: '" + what + "' is not a string");
    }
    return string_v;
  }
  const JsonArray& as_array(const std::string& what) const {
    if (kind != Kind::kArray) {
      throw std::runtime_error("bbx manifest: '" + what + "' is not an array");
    }
    return *array_v;
  }
  const JsonObject& as_object(const std::string& what) const {
    if (kind != Kind::kObject) {
      throw std::runtime_error("bbx manifest: '" + what +
                               "' is not an object");
    }
    return *object_v;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("bbx manifest: malformed JSON (" + what +
                             " at byte " + std::to_string(pos_) + ")");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return parse_number();
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    fail("unexpected token");
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    v.object_v = std::make_shared<JsonObject>();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      JsonValue key = parse_string();
      expect(':');
      v.object_v->emplace_back(std::move(key.string_v), parse_value());
      const char next = peek();
      ++pos_;
      if (next == '}') return v;
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    v.array_v = std::make_shared<JsonArray>();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_v->push_back(parse_value());
      const char next = peek();
      ++pos_;
      if (next == ']') return v;
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.string_v += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': v.string_v += '"'; break;
        case '\\': v.string_v += '\\'; break;
        case '/': v.string_v += '/'; break;
        case 'n': v.string_v += '\n'; break;
        case 'r': v.string_v += '\r'; break;
        case 't': v.string_v += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          const unsigned code =
              static_cast<unsigned>(std::stoul(text_.substr(pos_, 4), nullptr, 16));
          pos_ += 4;
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          v.string_v += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    bool is_real = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_real = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string tok = text_.substr(start, pos_ - start);
    JsonValue v;
    try {
      if (is_real) {
        v.kind = JsonValue::Kind::kReal;
        v.real_v = std::stod(tok);
      } else if (!tok.empty() && tok[0] == '-') {
        v.kind = JsonValue::Kind::kInt;
        v.int_v = std::stoll(tok);
      } else {
        v.kind = JsonValue::Kind::kUInt;
        v.uint_v = std::stoull(tok);
      }
    } catch (const std::exception&) {
      fail("unparseable number '" + tok + "'");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

const JsonValue* find(const JsonObject& obj, const std::string& key) {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& require(const JsonObject& obj, const std::string& key) {
  const JsonValue* v = find(obj, key);
  if (!v) throw std::runtime_error("bbx manifest: missing key '" + key + "'");
  return *v;
}

std::vector<std::string> string_array(const JsonValue& v,
                                      const std::string& what) {
  std::vector<std::string> out;
  for (const auto& item : v.as_array(what)) out.push_back(item.as_string(what));
  return out;
}

}  // namespace

std::string Manifest::shard_file_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%03zu.bbx", index);
  return buf;
}

void Manifest::write(std::ostream& out) const {
  out << "{\n";
  out << "  \"format\": \"bbx\",\n";
  out << "  \"version\": " << version << ",\n";
  out << "  \"factors\": ";
  write_string_array(out, factor_names);
  out << ",\n  \"metrics\": ";
  write_string_array(out, metric_names);
  out << ",\n  \"shard_count\": " << shard_count;
  out << ",\n  \"block_records\": " << block_records;
  out << ",\n  \"total_records\": " << total_records;
  out << ",\n  \"blocks\": [";
  // Block index rows: [shard, offset, stored, raw, crc, first_seq, records]
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockInfo& b = blocks[i];
    out << (i ? ",\n    [" : "\n    [") << b.shard << ", " << b.offset << ", "
        << b.stored_bytes << ", " << b.raw_bytes << ", " << b.crc32 << ", "
        << b.first_sequence << ", " << b.records << "]";
  }
  out << (blocks.empty() ? "]" : "\n  ]");
  if (!zones.empty()) {
    // Zone maps: one row per block, one entry per column ([min, max],
    // {"levels": [...]}, or null), in block-image column order.
    out << ",\n  \"zones\": [";
    for (std::size_t i = 0; i < zones.size(); ++i) {
      out << (i ? ",\n    [" : "\n    [");
      for (std::size_t c = 0; c < zones[i].columns.size(); ++c) {
        if (c) out << ", ";
        write_zone_entry(out, zones[i].columns[c]);
      }
      out << "]";
    }
    out << "\n  ]";
  }
  out << ",\n  \"extra\": {";
  for (std::size_t i = 0; i < extra.size(); ++i) {
    out << (i ? ",\n    \"" : "\n    \"") << json_escape(extra[i].first)
        << "\": \"" << json_escape(extra[i].second) << '"';
  }
  out << (extra.empty() ? "}" : "\n  }");
  out << "\n}\n";
}

Manifest Manifest::parse(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const JsonValue doc = JsonParser(text).parse_document();
  const JsonObject& obj = doc.as_object("document");

  if (require(obj, "format").as_string("format") != "bbx") {
    throw std::runtime_error("bbx manifest: not a bbx manifest");
  }
  Manifest m;
  m.version = static_cast<std::uint32_t>(require(obj, "version").as_uint("version"));
  // Version 1 (PR-4 bundles) lacks zone maps but is otherwise identical;
  // anything newer than this build's writer is refused outright.
  if (m.version < 1 || m.version > kManifestVersion) {
    throw std::runtime_error("bbx manifest: unsupported version " +
                             std::to_string(m.version));
  }
  m.factor_names = string_array(require(obj, "factors"), "factors");
  m.metric_names = string_array(require(obj, "metrics"), "metrics");
  m.shard_count =
      static_cast<std::size_t>(require(obj, "shard_count").as_uint("shard_count"));
  m.block_records = static_cast<std::size_t>(
      require(obj, "block_records").as_uint("block_records"));
  m.total_records = require(obj, "total_records").as_uint("total_records");
  for (const auto& row : require(obj, "blocks").as_array("blocks")) {
    const JsonArray& cells = row.as_array("block row");
    if (cells.size() != 7) {
      throw std::runtime_error("bbx manifest: block row is not 7 numbers");
    }
    BlockInfo b;
    b.shard = static_cast<std::uint32_t>(cells[0].as_uint("block shard"));
    b.offset = cells[1].as_uint("block offset");
    b.stored_bytes = static_cast<std::uint32_t>(cells[2].as_uint("block stored"));
    b.raw_bytes = static_cast<std::uint32_t>(cells[3].as_uint("block raw"));
    b.crc32 = static_cast<std::uint32_t>(cells[4].as_uint("block crc"));
    b.first_sequence = cells[5].as_uint("block first_sequence");
    b.records = static_cast<std::uint32_t>(cells[6].as_uint("block records"));
    m.blocks.push_back(b);
  }
  if (const JsonValue* zones = find(obj, "zones")) {
    const JsonArray& rows = zones->as_array("zones");
    if (rows.size() != m.blocks.size()) {
      throw std::runtime_error(
          "bbx manifest: " + std::to_string(rows.size()) +
          " zone rows for " + std::to_string(m.blocks.size()) + " blocks");
    }
    const std::size_t columns = m.column_count();
    for (const auto& row : rows) {
      const JsonArray& cells = row.as_array("zone row");
      if (cells.size() != columns) {
        throw std::runtime_error("bbx manifest: zone row width " +
                                 std::to_string(cells.size()) +
                                 " does not match the schema's " +
                                 std::to_string(columns) + " columns");
      }
      BlockStats stats;
      stats.columns.reserve(columns);
      for (const auto& cell : cells) {
        ColumnStats col;
        if (cell.kind == JsonValue::Kind::kNull) {
          // kNone: no stats for this column in this block.
        } else if (cell.kind == JsonValue::Kind::kArray) {
          const JsonArray& pair = cell.as_array("zone entry");
          if (pair.size() != 2) {
            throw std::runtime_error(
                "bbx manifest: numeric zone entry is not [min, max]");
          }
          col.kind = ColumnStats::Kind::kNumeric;
          col.min = pair[0].as_real("zone min");
          col.max = pair[1].as_real("zone max");
        } else {
          col.kind = ColumnStats::Kind::kStrings;
          col.levels = string_array(require(cell.as_object("zone entry"),
                                            "levels"),
                                    "zone levels");
        }
        stats.columns.push_back(std::move(col));
      }
      m.zones.push_back(std::move(stats));
    }
  }
  if (const JsonValue* extra = find(obj, "extra")) {
    for (const auto& [k, v] : extra->as_object("extra")) {
      m.extra.emplace_back(k, v.as_string("extra value"));
    }
  }
  return m;
}

Manifest Manifest::load(const std::string& dir) {
  const std::string path = dir + "/" + file_name();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(
        "bbx: missing manifest '" + path +
        "' (not a bbx bundle, or the campaign never finished its close)");
  }
  return parse(in);
}

}  // namespace cal::io::archive
