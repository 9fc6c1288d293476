#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "trace/stream_csv.h"

namespace grefar {
namespace {

using Rows = std::vector<std::vector<std::string>>;

// Reads a whole document into rows through parse_csv; the CsvReader.*
// cases below read through it.
Result<Rows> read_rows(std::string_view text, CsvLimits limits = {}) {
  Rows rows;
  Status st = parse_csv(
      text,
      [&rows](CsvRow fields, std::uint64_t, const CsvPosition&) -> Status {
        rows.emplace_back(fields.begin(), fields.end());
        return {};
      },
      limits);
  if (!st.ok()) return st.error();
  return rows;
}

std::string write_rows(const std::vector<std::vector<std::string>>& rows) {
  std::ostringstream os;
  CsvWriter writer(os);
  for (const auto& row : rows) writer.write_row(row);
  return os.str();
}

TEST(CsvWriter, PlainFields) {
  EXPECT_EQ(write_rows({{"a", "b"}, {"1", "2"}}), "a,b\n1,2\n");
}

TEST(CsvWriter, QuotesFieldsWithSeparator) {
  EXPECT_EQ(write_rows({{"a,b", "c"}}), "\"a,b\",c\n");
}

TEST(CsvWriter, EscapesQuotes) {
  EXPECT_EQ(write_rows({{"say \"hi\""}}), "\"say \"\"hi\"\"\"\n");
}

TEST(CsvWriter, QuotesNewlines) {
  EXPECT_EQ(write_rows({{"line1\nline2"}}), "\"line1\nline2\"\n");
}

TEST(CsvReader, ParsesSimpleDocument) {
  auto rows = read_rows("a,b\n1,2\n").value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvReader, HandlesMissingTrailingNewline) {
  auto rows = read_rows("a,b\n1,2").value();
  ASSERT_EQ(rows.size(), 2u);
}

TEST(CsvReader, QuotedFieldWithSeparator) {
  auto rows = read_rows("\"a,b\",c\n").value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a,b", "c"}));
}

TEST(CsvReader, QuotedFieldWithEscapedQuote) {
  auto rows = read_rows("\"say \"\"hi\"\"\"\n").value();
  EXPECT_EQ(rows[0][0], "say \"hi\"");
}

TEST(CsvReader, QuotedFieldWithNewline) {
  auto rows = read_rows("\"l1\nl2\",x\n").value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "l1\nl2");
}

TEST(CsvReader, ToleratesCrLf) {
  auto rows = read_rows("a,b\r\n1,2\r\n").value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "2");
}

TEST(CsvReader, EmptyFields) {
  auto rows = read_rows("a,,c\n").value();
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "", "c"}));
}

TEST(CsvReader, FailsOnUnterminatedQuote) {
  EXPECT_FALSE(read_rows("\"abc\n").ok());
}

TEST(CsvReader, EmptyDocumentHasNoRows) {
  EXPECT_TRUE(read_rows("").value().empty());
}

TEST(CsvRoundTrip, WriterOutputParsesBack) {
  Rows original{{"plain", "with,comma", "with \"quote\"", "multi\nline"},
                {"", "x", "", "y"}};
  auto parsed = read_rows(write_rows(original)).value();
  EXPECT_EQ(parsed, original);
}

TEST(FileIo, WriteAndReadBack) {
  std::string path = ::testing::TempDir() + "/grefar_csv_test.txt";
  ASSERT_TRUE(write_file(path, "hello\nworld").ok());
  auto content = read_file(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "hello\nworld");
  std::remove(path.c_str());
}

TEST(FileIo, ReadMissingFileFails) {
  auto content = read_file("/nonexistent/grefar/file.txt");
  EXPECT_FALSE(content.ok());
}

TEST(FileIo, ParseFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/grefar_csv_parse.csv";
  ASSERT_TRUE(write_file(path, "h1,h2\n1,2\n").ok());
  auto content = read_file(path);
  ASSERT_TRUE(content.ok());
  auto rows = read_rows(content.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
  std::remove(path.c_str());
}

TEST(CsvReaderLimits, FieldBytesEnforcedWithByteOffset) {
  CsvLimits limits;
  limits.max_field_bytes = 3;
  EXPECT_TRUE(read_rows("abc,def\n", limits).ok());
  auto rows = read_rows("abcd\n", limits);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.error().message,
            "CSV field exceeds max_field_bytes=3 at byte 3 (line 1, col 4)");
}

TEST(CsvReaderLimits, RowAndDocumentLimits) {
  CsvLimits limits;
  limits.max_fields_per_row = 2;
  limits.max_rows = 2;
  EXPECT_TRUE(read_rows("a,b\nc,d\n", limits).ok());
  EXPECT_FALSE(read_rows("a,b,c\n", limits).ok());
  EXPECT_FALSE(read_rows("a\nb\nc\n", limits).ok());
}

TEST(CsvReaderLimits, DefaultLimitsAreGenerous) {
  std::string wide(1000, 'x');
  auto rows = read_rows(wide + "," + wide + "\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value()[0][0].size(), 1000u);
}

}  // namespace
}  // namespace grefar
