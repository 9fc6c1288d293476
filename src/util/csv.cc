#include "util/csv.h"

#include <fstream>
#include <ostream>
#include <sstream>

namespace grefar {

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::escape(const std::string& field) {
  bool needs_quotes = field.find(',') != std::string::npos ||
                      field.find('"') != std::string::npos ||
                      field.find('\n') != std::string::npos ||
                      field.find('\r') != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error::make("cannot open file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

Status write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Error::make("cannot open file for writing: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Error::make("write failed: " + path);
  return {};
}

}  // namespace grefar
