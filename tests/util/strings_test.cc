#include "util/strings.h"

#include <gtest/gtest.h>

namespace grefar {
namespace {

TEST(Split, BasicFields) {
  auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, SingleField) {
  auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Split, EmptyString) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Trim, PreservesInnerWhitespace) { EXPECT_EQ(trim(" a b "), "a b"); }

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-flag", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("", "a"));
}

TEST(ParseDouble, ValidNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("-2").value(), -2.0);
  EXPECT_DOUBLE_EQ(parse_double("  3.25 ").value(), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("1e3").value(), 1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_double("1.5x").ok());
  EXPECT_FALSE(parse_double("abc").ok());
  EXPECT_FALSE(parse_double("").ok());
  EXPECT_FALSE(parse_double("1.5 2").ok());
}

TEST(ParseInt, ValidNumbers) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_EQ(parse_int(" 0 ").value(), 0);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(parse_int("4.2").ok());
  EXPECT_FALSE(parse_int("x").ok());
  EXPECT_FALSE(parse_int("").ok());
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
  EXPECT_EQ(format_fixed(-0.5, 3), "-0.500");
}

TEST(Pad, LeftAndRight) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");  // no truncation
}

}  // namespace
}  // namespace grefar
