#include "core/value.hpp"

#include <charconv>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace cal {

namespace {

/// Longest %.17g text: sign, 17 digits, point, "e-308".
constexpr std::size_t kRealChars = 32;

char* format_real_to(double v, char* first) noexcept {
  // Precision 17 in general format is %.17g's choice of fixed or
  // scientific notation and its trailing-zero trim, digit for digit.
  return std::to_chars(first, first + kRealChars, v,
                       std::chars_format::general, 17)
      .ptr;
}

}  // namespace

std::string format_real(double v) {
  char buf[kRealChars];
  return std::string(buf, format_real_to(v, buf));
}

void append_real(std::string& out, double v) {
  char buf[kRealChars];
  out.append(buf, format_real_to(v, buf));
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (const auto* r = std::get_if<double>(&data_)) {
    return static_cast<std::int64_t>(*r);
  }
  throw std::runtime_error("Value: string '" + std::get<std::string>(data_) +
                           "' used as integer");
}

double Value::as_real() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  if (const auto* r = std::get_if<double>(&data_)) return *r;
  throw std::runtime_error("Value: string '" + std::get<std::string>(data_) +
                           "' used as real");
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  throw std::runtime_error("Value: numeric value used as string");
}

std::string Value::to_string() const {
  switch (kind()) {
    case ValueKind::kInt:
      return std::to_string(std::get<std::int64_t>(data_));
    case ValueKind::kReal: return format_real(std::get<double>(data_));
    case ValueKind::kString:
      return std::get<std::string>(data_);
  }
  return {};
}

Value Value::parse(const std::string& text) {
  if (text.empty()) return Value(std::string{});
  // Integer?
  {
    std::int64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec == std::errc{} && ptr == text.data() + text.size()) return Value(v);
  }
  // Real?
  {
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec == std::errc{} && ptr == text.data() + text.size()) return Value(v);
  }
  return Value(text);
}

bool operator==(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    // Allow int/real cross-comparison for convenience in tests and joins.
    if (a.kind() != ValueKind::kString && b.kind() != ValueKind::kString) {
      return a.as_real() == b.as_real();
    }
    return false;
  }
  return a.data_ == b.data_;
}

std::size_t Value::hash() const noexcept {
  if (const auto* s = std::get_if<std::string>(&data_)) {
    return std::hash<std::string>{}(*s);
  }
  // Numeric: int and real that compare equal must hash equal.  Hash the
  // double view; every int64 representable as double hashes consistently,
  // and group-by keys mixing the two kinds for the same level are rare
  // enough that collisions from the cast are harmless (equality rechecks).
  double d = 0.0;
  if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    d = static_cast<double>(*i);
  } else {
    d = std::get<double>(data_);
  }
  if (d == 0.0) d = 0.0;  // collapse -0.0 and +0.0 (they compare equal)
  return std::hash<double>{}(d);
}

bool operator<(const Value& a, const Value& b) {
  const bool a_num = a.kind() != ValueKind::kString;
  const bool b_num = b.kind() != ValueKind::kString;
  if (a_num && b_num) {
    // Int pairs compare exactly, like operator==: ints past 2^53 that
    // share a double must not collapse into one group-by key.
    if (a.is_int() && b.is_int()) return a.as_int() < b.as_int();
    // NaN sorts after every number and ties with every NaN, so this stays
    // a strict weak order (a sort over NaN keys is otherwise undefined).
    const double x = a.as_real();
    const double y = b.as_real();
    if (std::isnan(x) || std::isnan(y)) return !std::isnan(x);
    return x < y;
  }
  if (a_num != b_num) return a_num;  // numbers sort before strings
  return a.as_string() < b.as_string();
}

}  // namespace cal
