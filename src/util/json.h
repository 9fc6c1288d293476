// Minimal JSON document model + parser + serializer.
//
// Used for experiment/scenario configuration files. Supports the full JSON
// grammar except numeric exotica (NaN/Inf are rejected on serialize).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/result.h"

namespace grefar {

class JsonValue;

/// JSON object: ordered by key (std::map) for deterministic serialization.
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

/// A JSON value: null, bool, number (double), string, array or object.
class JsonValue {
 public:
  JsonValue() : data_(nullptr) {}
  /*implicit*/ JsonValue(std::nullptr_t) : data_(nullptr) {}
  /*implicit*/ JsonValue(bool b) : data_(b) {}
  /*implicit*/ JsonValue(double d) : data_(d) {}
  /*implicit*/ JsonValue(int i) : data_(static_cast<double>(i)) {}
  /*implicit*/ JsonValue(std::int64_t i) : data_(static_cast<double>(i)) {}
  /*implicit*/ JsonValue(const char* s) : data_(std::string(s)) {}
  /*implicit*/ JsonValue(std::string s) : data_(std::move(s)) {}
  /*implicit*/ JsonValue(JsonArray a) : data_(std::move(a)) {}
  /*implicit*/ JsonValue(JsonObject o) : data_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(data_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(data_); }

  /// Typed accessors; contract-checked (call the matching is_*() first).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  /// Object lookup; returns nullptr when missing or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Convenience typed lookups with defaults, for config parsing.
  double number_or(const std::string& key, double fallback) const;
  std::int64_t int_or(const std::string& key, std::int64_t fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;

  /// Serializes; indent < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  bool operator==(const JsonValue& other) const { return data_ == other.data_; }

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> data_;
};

/// Appends the JSON text of `d` to `out`: integral values below 1e15 in
/// magnitude as integers ("-0" for -0.0), anything else as the shortest of
/// %.15g / %.16g / %.17g that round-trips exactly. Locale-independent; the
/// one number formatter behind dump() and the streaming slot-log writer.
/// Contract: `d` is finite (JSON has no NaN/Inf).
void append_json_number(double d, std::string& out);

/// Parses a JSON document. Errors carry 1-based line/column positions.
Result<JsonValue> parse_json(std::string_view text);

/// Parses a JSON file from disk.
Result<JsonValue> parse_json_file(const std::string& path);

}  // namespace grefar
