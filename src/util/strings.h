// Small string helpers shared across modules (parsing, table formatting).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace grefar {

/// Splits `s` on `sep`; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a double; rejects trailing garbage ("1.5x" fails).
Result<double> parse_double(std::string_view s);

/// Parses a 64-bit signed integer; rejects trailing garbage.
Result<std::int64_t> parse_int(std::string_view s);

/// Formats a double with `precision` digits after the decimal point.
std::string format_fixed(double v, int precision);

/// Left/right-pads `s` with spaces to width `w` (no-op if already wider).
std::string pad_left(std::string s, std::size_t w);
std::string pad_right(std::string s, std::size_t w);

}  // namespace grefar
