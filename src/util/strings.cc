#include "util/strings.h"

#include <charconv>
#include <cstdio>

namespace grefar {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

namespace {

/// std::isspace in the "C" locale (" \t\n\v\f\r"), inline: trim runs on
/// every number a trace row holds.
bool is_ascii_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_ascii_space(s[b])) ++b;
  while (e > b && is_ascii_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Result<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return Error::make("empty string is not a number");
  double value = 0.0;
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    return Error::make("invalid double: '" + std::string(s) + "'");
  }
  return value;
}

Result<std::int64_t> parse_int(std::string_view s) {
  s = trim(s);
  if (s.empty()) return Error::make("empty string is not an integer");
  std::int64_t value = 0;
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    return Error::make("invalid integer: '" + std::string(s) + "'");
  }
  return value;
}

std::string format_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string pad_left(std::string s, std::size_t w) {
  if (s.size() < w) s.insert(s.begin(), w - s.size(), ' ');
  return s;
}

std::string pad_right(std::string s, std::size_t w) {
  if (s.size() < w) s.append(w - s.size(), ' ');
  return s;
}

}  // namespace grefar
