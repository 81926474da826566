// Tests for cal::Value: kinds, conversions, parsing, ordering.

#include "core/value.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>

namespace cal {
namespace {

TEST(Value, IntKind) {
  const Value v(std::int64_t{42});
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_DOUBLE_EQ(v.as_real(), 42.0);
  EXPECT_EQ(v.to_string(), "42");
}

TEST(Value, RealKind) {
  const Value v(2.5);
  EXPECT_TRUE(v.is_real());
  EXPECT_DOUBLE_EQ(v.as_real(), 2.5);
  EXPECT_EQ(v.as_int(), 2);  // truncation
}

TEST(Value, StringKind) {
  const Value v("pingpong");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "pingpong");
  EXPECT_EQ(v.to_string(), "pingpong");
}

TEST(Value, StringAsNumberThrows) {
  const Value v("abc");
  EXPECT_THROW(v.as_int(), std::runtime_error);
  EXPECT_THROW(v.as_real(), std::runtime_error);
}

TEST(Value, NumberAsStringThrows) {
  EXPECT_THROW(Value(1).as_string(), std::runtime_error);
}

TEST(Value, ParseInteger) {
  const Value v = Value::parse("12345");
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 12345);
}

TEST(Value, ParseNegativeInteger) {
  const Value v = Value::parse("-17");
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), -17);
}

TEST(Value, ParseReal) {
  const Value v = Value::parse("3.25");
  EXPECT_TRUE(v.is_real());
  EXPECT_DOUBLE_EQ(v.as_real(), 3.25);
}

TEST(Value, ParseScientific) {
  const Value v = Value::parse("1e3");
  EXPECT_TRUE(v.is_real());
  EXPECT_DOUBLE_EQ(v.as_real(), 1000.0);
}

TEST(Value, ParseString) {
  const Value v = Value::parse("eager");
  EXPECT_TRUE(v.is_string());
}

TEST(Value, ParseEmptyIsString) {
  EXPECT_TRUE(Value::parse("").is_string());
}

TEST(Value, RealRoundTripsThroughText) {
  const double x = 0.1234567890123456789;
  const Value v(x);
  const Value back = Value::parse(v.to_string());
  EXPECT_DOUBLE_EQ(back.as_real(), x);
}

TEST(Value, IntRoundTripsThroughText) {
  const Value v(std::int64_t{9007199254740993LL});  // > 2^53
  const Value back = Value::parse(v.to_string());
  ASSERT_TRUE(back.is_int());
  EXPECT_EQ(back.as_int(), 9007199254740993LL);
}

TEST(Value, EqualityWithinKind) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(2));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
}

TEST(Value, CrossNumericEquality) {
  EXPECT_EQ(Value(1), Value(1.0));
  EXPECT_NE(Value(1), Value(1.5));
}

TEST(Value, StringNeverEqualsNumber) {
  EXPECT_NE(Value("1"), Value(1));
}

TEST(Value, OrderingNumbersBeforeStrings) {
  EXPECT_LT(Value(5), Value(10));
  EXPECT_LT(Value(2.5), Value(3));
  EXPECT_LT(Value(1000000), Value("a"));
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(Value, IntOrderingIsExactPastTwoTo53) {
  // 2^53 and 2^53 + 1 widen to the same double but are distinct ints
  // (operator== tells them apart), so ordering must too.
  const Value a(std::int64_t{1} << 53), b((std::int64_t{1} << 53) + 1);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
}

std::string printf_17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// format_real is the one double formatter (Value, Metadata, manifests,
// CSV); it must keep printf's "%.17g" bytes exactly.
TEST(FormatReal, MatchesPrintf17gOnEdgesAndRandomBitPatterns) {
  using lim = std::numeric_limits<double>;
  const double edges[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0,
                          0.1,
                          1.0 / 3.0,
                          lim::min(),
                          -lim::min(),
                          lim::denorm_min(),
                          -lim::denorm_min(),
                          lim::max(),
                          lim::lowest(),
                          lim::infinity(),
                          -lim::infinity(),
                          lim::quiet_NaN(),
                          -lim::quiet_NaN(),
                          1e16,
                          1e17,
                          9999999999999998.0,
                          99999999999999984.0,
                          1e-5,
                          1e-4,
                          123456789012345678.0,
                          9007199254740993.0,
                          5e-324,
                          2.2250738585072009e-308};
  for (const double v : edges) {
    EXPECT_EQ(format_real(v), printf_17g(v)) << printf_17g(v);
  }
  std::mt19937_64 rng(0xF0A7);
  std::string appended = "x";
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = std::bit_cast<double>(rng());
    const std::string expected = printf_17g(v);
    ASSERT_EQ(format_real(v), expected)
        << "bits " << std::bit_cast<std::uint64_t>(v);
    if (i % 4096 == 0) {
      appended.resize(1);
      append_real(appended, v);
      ASSERT_EQ(appended, "x" + expected);
    }
  }
  // Decimal-looking values too: short mantissas at every exponent.
  for (int e = -320; e <= 308; ++e) {
    for (const int m : {1, 5, 12, 999}) {
      const std::string text = std::to_string(m) + "e" + std::to_string(e);
      const double v = std::strtod(text.c_str(), nullptr);
      ASSERT_EQ(format_real(v), printf_17g(v)) << m << "e" << e;
    }
  }
  EXPECT_EQ(Value(-0.0).to_string(), "-0");
  EXPECT_EQ(Value(lim::infinity()).to_string(), "inf");
}

}  // namespace
}  // namespace cal
