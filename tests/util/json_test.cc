#include "util/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "json_number_reference.h"
#include "util/check.h"

namespace grefar {
namespace {

TEST(JsonParse, Literals) {
  EXPECT_TRUE(parse_json("null").value().is_null());
  EXPECT_TRUE(parse_json("true").value().as_bool());
  EXPECT_FALSE(parse_json("false").value().as_bool());
}

TEST(JsonParse, Numbers) {
  EXPECT_DOUBLE_EQ(parse_json("42").value().as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-3.5").value().as_number(), -3.5);
  EXPECT_DOUBLE_EQ(parse_json("1e3").value().as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_json("2.5E-2").value().as_number(), 0.025);
  EXPECT_DOUBLE_EQ(parse_json("0").value().as_number(), 0.0);
}

TEST(JsonParse, OutOfRangeNumbersAreErrorsWithPosition) {
  for (const char* doc : {"1e999", "-1e999", "1e-400", "[0, -1e-400]"}) {
    auto r = parse_json(doc);
    ASSERT_FALSE(r.ok()) << doc;
    EXPECT_NE(r.error().message.find("number out of range"), std::string::npos)
        << r.error().message;
  }
  auto r = parse_json("{\n  \"a\": 1e999\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("line 2, col 8"), std::string::npos)
      << r.error().message;
}

TEST(JsonParse, SubnormalNumbersParse) {
  EXPECT_EQ(parse_json("1e-310").value().as_number(), 1e-310);
  EXPECT_EQ(parse_json("4.9406564584124654e-324").value().as_number(),
            std::numeric_limits<double>::denorm_min());
}

TEST(JsonParse, Strings) {
  EXPECT_EQ(parse_json("\"hello\"").value().as_string(), "hello");
  EXPECT_EQ(parse_json("\"a\\nb\"").value().as_string(), "a\nb");
  EXPECT_EQ(parse_json("\"q\\\"q\"").value().as_string(), "q\"q");
  EXPECT_EQ(parse_json("\"back\\\\slash\"").value().as_string(), "back\\slash");
  EXPECT_EQ(parse_json("\"\"").value().as_string(), "");
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parse_json("\"\\u0041\"").value().as_string(), "A");
  EXPECT_EQ(parse_json("\"\\u00e9\"").value().as_string(), "\xC3\xA9");   // é
  EXPECT_EQ(parse_json("\"\\u20ac\"").value().as_string(), "\xE2\x82\xAC");  // €
}

TEST(JsonParse, Arrays) {
  auto v = parse_json("[1, 2, 3]").value();
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.as_array()[1].as_number(), 2.0);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(parse_json("[]").value().as_array().empty());
  EXPECT_TRUE(parse_json("{}").value().as_object().empty());
}

TEST(JsonParse, NestedObject) {
  auto v = parse_json(R"({"a": {"b": [true, {"c": 1}]}})").value();
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  const JsonValue* b = a->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_DOUBLE_EQ(b->as_array()[1].find("c")->as_number(), 1.0);
}

TEST(JsonParse, WhitespaceTolerant) {
  auto v = parse_json(" \n\t{ \"k\" :\n1 } ").value();
  EXPECT_DOUBLE_EQ(v.find("k")->as_number(), 1.0);
}

TEST(JsonParse, RejectsTrailingGarbage) {
  EXPECT_FALSE(parse_json("1 2").ok());
  EXPECT_FALSE(parse_json("{} []").ok());
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_FALSE(parse_json("").ok());
  EXPECT_FALSE(parse_json("{").ok());
  EXPECT_FALSE(parse_json("[1,").ok());
  EXPECT_FALSE(parse_json("{\"a\" 1}").ok());
  EXPECT_FALSE(parse_json("{\"a\": }").ok());
  EXPECT_FALSE(parse_json("[1 2]").ok());
  EXPECT_FALSE(parse_json("tru").ok());
  EXPECT_FALSE(parse_json("\"unterminated").ok());
  EXPECT_FALSE(parse_json("01x").ok());
  EXPECT_FALSE(parse_json("- ").ok());
  EXPECT_FALSE(parse_json("1e").ok());
}

TEST(JsonParse, ErrorsIncludePosition) {
  auto r = parse_json("{\n  \"a\": oops\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("line 2"), std::string::npos);
}

TEST(JsonParse, RejectsControlCharInString) {
  std::string bad = "\"a\x01b\"";
  EXPECT_FALSE(parse_json(bad).ok());
}

TEST(JsonDump, CompactRoundTrip) {
  const char* doc = R"({"arr":[1,2.5,"s"],"b":true,"n":null})";
  auto v = parse_json(doc).value();
  EXPECT_EQ(v.dump(), doc);
}

TEST(JsonDump, PrettyPrint) {
  JsonObject obj;
  obj["x"] = 1;
  auto pretty = JsonValue(obj).dump(2);
  EXPECT_EQ(pretty, "{\n  \"x\": 1\n}");
}

TEST(JsonDump, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").dump(), R"("a\"b\\c\nd")");
}

TEST(JsonDump, RoundTripPreservesValues) {
  const char* doc = R"({"deep":{"list":[[1],[2,[3]]],"t":true},"f":false})";
  auto v = parse_json(doc).value();
  auto v2 = parse_json(v.dump()).value();
  EXPECT_EQ(v, v2);
}

TEST(JsonDump, RejectsNonFinite) {
  JsonValue v(std::numeric_limits<double>::infinity());
  EXPECT_THROW(v.dump(), ContractViolation);
}

using testing_reference::printf_json_number;

std::string json_number(double d) {
  std::string out;
  append_json_number(d, out);
  return out;
}

TEST(JsonNumber, MatchesPrintfReferenceOnEdgeValues) {
  const double edges[] = {
      0.0,
      1.0,
      1e15,
      std::nextafter(1e15, 0.0),
      std::nextafter(1e15, 2e15),
      999999999999999.0,
      1e15 - 0.5,
      1e16,
      9007199254740993.0,
      123456789012345678.0,
      0.0001,
      1e-05,
      0.1,
      0.1 + 0.2,  // 0.30000000000000004
      0.5,
      2.5,
      1.0 / 3.0,
      2.0 / 3.0,
      0.1234567890123456,   // 16 significant digits
      0.12345678901234568,  // 17 significant digits
      123456789012345.6,
      1e21,
      1e22,
      1e100,
      DBL_MIN,
      DBL_MIN / 2.0,
      DBL_MIN - std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::denorm_min(),
      DBL_MAX,
      DBL_EPSILON,
  };
  for (double d : edges) {
    EXPECT_EQ(json_number(d), printf_json_number(d)) << std::hexfloat << d;
    EXPECT_EQ(json_number(-d), printf_json_number(-d)) << std::hexfloat << -d;
  }
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(json_number(1e-05), "1e-05");
}

TEST(JsonNumber, MatchesPrintfReferenceOnRandomValues) {
  std::mt19937_64 rng(0x9e3779b97f4a7c15ULL);
  // Raw bit patterns: every exponent, subnormals included.
  int checked = 0;
  while (checked < 100000) {
    const double d = std::bit_cast<double>(rng());
    if (!std::isfinite(d)) continue;
    ASSERT_EQ(json_number(d), printf_json_number(d)) << std::hexfloat << d;
    ++checked;
  }
  // Values a slot record actually holds: integers around the 1e15 cut and
  // short decimals.
  std::uniform_int_distribution<std::int64_t> ints(-2'000'000'000'000'000,
                                                   2'000'000'000'000'000);
  std::uniform_int_distribution<std::int64_t> small(-1'000'000, 1'000'000);
  for (int k = 0; k < 20000; ++k) {
    const double i = static_cast<double>(ints(rng));
    ASSERT_EQ(json_number(i), printf_json_number(i)) << std::hexfloat << i;
    const double dec = static_cast<double>(small(rng)) / 1000.0;
    ASSERT_EQ(json_number(dec), printf_json_number(dec)) << std::hexfloat << dec;
  }
}

// Checks `d` and -`d` against the reference.
void expect_matches_reference(double d) {
  for (double v : {d, -d}) EXPECT_EQ(json_number(v), printf_json_number(v)) << std::hexfloat << v;
}

// Exact powers of two are the one class of normal values where the shortest
// round-trip digits and the first of %.15g/%.16g/%.17g that round-trips can
// differ (their rounding interval is narrower below than above), so the
// formatter hands them to the round-trip loop. Every one of them, normal and
// subnormal.
TEST(JsonNumber, MatchesPrintfReferenceOnEveryPowerOfTwo) {
  for (int k = -1074; k <= 1023; ++k) expect_matches_reference(std::ldexp(1.0, k));
}

// Every decimal power in range, and both of its neighbours: the values where
// %g switches between fixed and exponent layout and where a digit count
// changes.
TEST(JsonNumber, MatchesPrintfReferenceOnPowersOfTenAndNeighbours) {
  const double inf = std::numeric_limits<double>::infinity();
  for (int k = -323; k <= 308; ++k) {
    const std::string text = "1e" + std::to_string(k);
    double p = 0.0;
    std::from_chars(text.data(), text.data() + text.size(), p);
    ASSERT_GT(p, 0.0) << text;
    for (double d : {std::nextafter(p, 0.0), p, std::nextafter(p, inf)}) {
      if (std::isfinite(d)) expect_matches_reference(d);
    }
  }
}

TEST(JsonNumber, MatchesPrintfReferenceOnSubnormals) {
  std::mt19937_64 rng(0x5eed5eed5eedULL);
  const std::uint64_t fraction = (std::uint64_t{1} << 52) - 1;
  for (int k = 0; k < 20000; ++k) {
    expect_matches_reference(std::bit_cast<double>((rng() & fraction) | 1));
  }
  for (std::uint64_t bits : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
                             fraction, fraction - 1, fraction / 3, fraction / 10}) {
    expect_matches_reference(std::bit_cast<double>(bits));
  }
}

// The integer path ends at 1e15 and exact integers end at 2^53: every
// double within 64 of either cut.
TEST(JsonNumber, MatchesPrintfReferenceOnIntegerCuts) {
  for (double cut : {1e15, 9007199254740992.0}) {
    for (double d = cut; d > cut - 64; d = std::nextafter(d, 0.0)) {
      expect_matches_reference(d);
    }
    for (double d = cut; d < cut + 64; d = std::nextafter(d, 2 * cut)) {
      expect_matches_reference(d);
    }
  }
  EXPECT_EQ(json_number(1e15), "1e+15");
  EXPECT_EQ(json_number(std::nextafter(1e15, 0.0)), "999999999999999.9");
  EXPECT_EQ(json_number(9007199254740994.0), "9007199254740994");
}

TEST(JsonNumber, RejectsNonFinite) {
  std::string out;
  EXPECT_THROW(append_json_number(std::nan(""), out), ContractViolation);
  EXPECT_THROW(append_json_number(std::numeric_limits<double>::infinity(), out),
               ContractViolation);
  EXPECT_THROW(append_json_number(-std::numeric_limits<double>::infinity(), out),
               ContractViolation);
}

TEST(JsonValue, TypedAccessorsAreContractChecked) {
  JsonValue v(1.0);
  EXPECT_THROW(v.as_string(), ContractViolation);
  EXPECT_THROW(v.as_array(), ContractViolation);
  EXPECT_THROW(v.as_object(), ContractViolation);
  EXPECT_THROW(v.as_bool(), ContractViolation);
}

TEST(JsonValue, FindOnNonObjectReturnsNull) {
  EXPECT_EQ(JsonValue(1.0).find("x"), nullptr);
  EXPECT_EQ(JsonValue(JsonArray{}).find("x"), nullptr);
}

TEST(JsonValue, DefaultedLookups) {
  auto v = parse_json(R"({"d": 2.5, "b": true, "s": "txt"})").value();
  EXPECT_DOUBLE_EQ(v.number_or("d", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 9.0), 9.0);
  EXPECT_TRUE(v.bool_or("b", false));
  EXPECT_FALSE(v.bool_or("missing", false));
  // Wrong-typed keys fall back too.
  EXPECT_DOUBLE_EQ(v.number_or("s", 1.5), 1.5);
}

TEST(JsonParse, DuplicateKeysLastWins) {
  auto v = parse_json(R"({"k": 1, "k": 2})").value();
  EXPECT_DOUBLE_EQ(v.find("k")->as_number(), 2.0);
}

TEST(JsonFile, MissingFileFails) {
  EXPECT_FALSE(parse_json_file("/no/such/file.json").ok());
}

}  // namespace
}  // namespace grefar
