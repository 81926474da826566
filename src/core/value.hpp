#pragma once
// A tagged value for factor levels and measurement outputs.
//
// Experiment plans and raw-result tables are serialized to CSV so they can
// be inspected, archived and re-analyzed (the "keep all information" rule
// of the methodology).  Value carries enough type information to round-trip
// through text without loss of intent: integers stay integers (message
// sizes, strides), reals keep full precision, and categorical levels
// (e.g. operation names) stay strings.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace cal {

enum class ValueKind { kInt, kReal, kString };

class Value {
 public:
  Value() : data_(std::int64_t{0}) {}
  Value(std::int64_t v) : data_(v) {}           // NOLINT(google-explicit-constructor)
  Value(int v) : data_(std::int64_t{v}) {}      // NOLINT(google-explicit-constructor)
  Value(std::size_t v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(double v) : data_(v) {}                 // NOLINT(google-explicit-constructor)
  Value(std::string v) : data_(std::move(v)) {} // NOLINT(google-explicit-constructor)
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT

  ValueKind kind() const noexcept;

  bool is_int() const noexcept { return kind() == ValueKind::kInt; }
  bool is_real() const noexcept { return kind() == ValueKind::kReal; }
  bool is_string() const noexcept { return kind() == ValueKind::kString; }

  /// Integer view.  Reals are truncated toward zero; strings throw.
  std::int64_t as_int() const;

  /// Real view.  Integers widen; strings throw.
  double as_real() const;

  /// String view of categorical values; numeric values throw
  /// (use to_string() for display formatting instead).
  const std::string& as_string() const;

  /// Display / CSV form.  Reals use round-trip precision.
  std::string to_string() const;

  /// Parses a CSV cell: integer if it looks like one, then real,
  /// otherwise string.
  static Value parse(const std::string& text);

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Ordering used for group-by keys: by kind, then by content.
  friend bool operator<(const Value& a, const Value& b);

  /// Hash consistent with operator== (which compares int and real values
  /// numerically): numeric values hash through their double view, strings
  /// through std::hash<std::string>.
  std::size_t hash() const noexcept;

 private:
  std::variant<std::int64_t, double, std::string> data_;
};

/// The one double formatter: round-trip text byte-identical to
/// printf("%.17g") -- inf, -inf, nan, -nan, -0 and denormals included --
/// through std::to_chars, with no format parsing and no locale.  Value,
/// Metadata, bbx manifests and every CSV writer render reals with it.
std::string format_real(double v);

/// Appends format_real(v) to `out` without a temporary string.
void append_real(std::string& out, double v);

/// Hasher for Value and std::vector<Value> group-by keys.
struct ValueHash {
  std::size_t operator()(const Value& v) const noexcept { return v.hash(); }

  std::size_t operator()(const std::vector<Value>& key) const noexcept {
    // FNV-style combine: order-sensitive, cheap, no allocation.
    std::size_t h = 0xcbf29ce484222325ULL;
    for (const Value& v : key) {
      h ^= v.hash();
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

}  // namespace cal
