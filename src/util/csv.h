// Minimal RFC-4180-style CSV writer plus whole-file read/write helpers used
// by the trace module and the benchmark harness. Reading CSV goes through
// trace/stream_csv.h's parse_csv.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace grefar {

/// Serializes rows to CSV in the dialect parse_csv reads: ',' separates,
/// and fields containing a comma, quotes or line breaks are quoted with
/// embedded quotes doubled.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  /// Writes one row; flushes a trailing '\n'.
  void write_row(const std::vector<std::string>& fields);

 private:
  static std::string escape(const std::string& field);

  std::ostream& out_;
};

/// Reads an entire file into a string.
Result<std::string> read_file(const std::string& path);

/// Writes `content` to `path`, replacing any existing file.
Status write_file(const std::string& path, std::string_view content);

}  // namespace grefar
