#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "util/check.h"
#include "util/csv.h"  // read_file

namespace grefar {

bool JsonValue::as_bool() const {
  GREFAR_CHECK(is_bool());
  return std::get<bool>(data_);
}
double JsonValue::as_number() const {
  GREFAR_CHECK(is_number());
  return std::get<double>(data_);
}
const std::string& JsonValue::as_string() const {
  GREFAR_CHECK(is_string());
  return std::get<std::string>(data_);
}
const JsonArray& JsonValue::as_array() const {
  GREFAR_CHECK(is_array());
  return std::get<JsonArray>(data_);
}
const JsonObject& JsonValue::as_object() const {
  GREFAR_CHECK(is_object());
  return std::get<JsonObject>(data_);
}
JsonArray& JsonValue::as_array() {
  GREFAR_CHECK(is_array());
  return std::get<JsonArray>(data_);
}
JsonObject& JsonValue::as_object() {
  GREFAR_CHECK(is_object());
  return std::get<JsonObject>(data_);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = std::get<JsonObject>(data_);
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}
std::int64_t JsonValue::int_or(const std::string& key, std::int64_t fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? static_cast<std::int64_t>(v->as_number())
                                          : fallback;
}
bool JsonValue::bool_or(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}
std::string JsonValue::string_or(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

namespace {

void escape_json_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void append_json_number(double d, std::string& out) {
  GREFAR_CHECK_MSG(std::isfinite(d), "JSON cannot represent non-finite numbers");
  // Integral values get the text printf's %.0f gives, which keeps the sign
  // of -0.0. Zero, by far the most common value in a slot record, first.
  if (d == 0.0) {
    out += std::signbit(d) ? "-0" : "0";
    return;
  }
  char buf[32];
  char* const end = buf + sizeof(buf);
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    out.append(buf, std::to_chars(buf, end, static_cast<std::int64_t>(d)).ptr);
    return;
  }
  // Shortest of %.15g / %.16g / %.17g that round-trips exactly; to_chars
  // with a precision formats as printf's %.*g would, minus the locale.
  char* last = end;
  for (int precision : {15, 16, 17}) {
    last = std::to_chars(buf, end, d, std::chars_format::general, precision).ptr;
    double back = 0.0;
    std::from_chars(buf, last, back);
    if (back == d) break;
  }
  out.append(buf, last);
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    append_json_number(as_number(), out);
  } else if (is_string()) {
    escape_json_string(as_string(), out);
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) out += ',';
      append_newline_indent(out, indent, depth + 1);
      arr[i].dump_to(out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) out += ',';
      first = false;
      append_newline_indent(out, indent, depth + 1);
      escape_json_string(key, out);
      out += indent < 0 ? ":" : ": ";
      value.dump_to(out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += '}';
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser with line/column error reporting.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> parse() {
    skip_whitespace();
    auto value = parse_value();
    if (!value.ok()) return value;
    skip_whitespace();
    if (pos_ != text_.size()) return fail("trailing characters after JSON value");
    return value;
  }

 private:
  Error fail(const std::string& msg) const { return fail_at(msg, line_, col_); }

  static Error fail_at(const std::string& msg, int line, int col) {
    return Error::make(msg + " at line " + std::to_string(line) + ", col " +
                       std::to_string(col));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char advance() {
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_whitespace() {
    while (!eof()) {
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    for (std::size_t i = 0; i < lit.size(); ++i) advance();
    return true;
  }

  Result<JsonValue> parse_value() {
    if (eof()) return fail("unexpected end of input");
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        auto s = parse_string();
        if (!s.ok()) return s.error();
        return JsonValue(std::move(s).value());
      }
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        return fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        return fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        return fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Result<JsonValue> parse_object() {
    advance();  // '{'
    JsonObject obj;
    skip_whitespace();
    if (!eof() && peek() == '}') {
      advance();
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_whitespace();
      if (eof() || peek() != '"') return fail("expected object key string");
      auto key = parse_string();
      if (!key.ok()) return key.error();
      skip_whitespace();
      if (eof() || peek() != ':') return fail("expected ':' after object key");
      advance();
      skip_whitespace();
      auto value = parse_value();
      if (!value.ok()) return value;
      obj[std::move(key).value()] = std::move(value).value();
      skip_whitespace();
      if (eof()) return fail("unterminated object");
      char c = advance();
      if (c == '}') return JsonValue(std::move(obj));
      if (c != ',') return fail("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> parse_array() {
    advance();  // '['
    JsonArray arr;
    skip_whitespace();
    if (!eof() && peek() == ']') {
      advance();
      return JsonValue(std::move(arr));
    }
    while (true) {
      skip_whitespace();
      auto value = parse_value();
      if (!value.ok()) return value;
      arr.push_back(std::move(value).value());
      skip_whitespace();
      if (eof()) return fail("unterminated array");
      char c = advance();
      if (c == ']') return JsonValue(std::move(arr));
      if (c != ',') return fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> parse_string() {
    advance();  // '"'
    std::string out;
    while (true) {
      if (eof()) return fail("unterminated string");
      char c = advance();
      if (c == '"') return out;
      if (c == '\\') {
        if (eof()) return fail("unterminated escape");
        char esc = advance();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = advance();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("invalid \\u escape digit");
            }
            // Encode as UTF-8 (basic multilingual plane; surrogate pairs
            // are passed through as-is, which suffices for config files).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return fail("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
  }

  Result<JsonValue> parse_number() {
    const std::size_t start = pos_;
    const int start_line = line_;
    const int start_col = col_;
    if (!eof() && peek() == '-') advance();
    bool has_digits = false;
    while (!eof() && peek() >= '0' && peek() <= '9') {
      advance();
      has_digits = true;
    }
    if (!eof() && peek() == '.') {
      advance();
      while (!eof() && peek() >= '0' && peek() <= '9') {
        advance();
        has_digits = true;
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      advance();
      if (!eof() && (peek() == '+' || peek() == '-')) advance();
      bool exp_digits = false;
      while (!eof() && peek() >= '0' && peek() <= '9') {
        advance();
        exp_digits = true;
      }
      if (!exp_digits) return fail("malformed exponent");
    }
    if (!has_digits) return fail("invalid number");
    // from_chars, unlike stod, neither throws nor reads the locale.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range) {
      return fail_at("number out of range", start_line, start_col);
    }
    if (ec != std::errc{} || ptr != last) {
      return fail_at("invalid number", start_line, start_col);
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

Result<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

Result<JsonValue> parse_json_file(const std::string& path) {
  auto content = read_file(path);
  if (!content.ok()) return content.error();
  return parse_json(content.value());
}

}  // namespace grefar
