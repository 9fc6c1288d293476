// Result<T>: a minimal expected-style return type for operations with
// anticipated failure modes (parsing, file IO). We target C++20, which lacks
// std::expected; this covers the subset the library needs.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace grefar {

/// Error payload for Result<T>: a human-readable message plus optional
/// location context (file/line of the *input* being processed, not source).
struct Error {
  std::string message;

  /// Builds an error with printf-free streaming-style concatenation left to
  /// callers; keep messages actionable ("expected ',' at line 3, col 7").
  static Error make(std::string msg) { return Error{std::move(msg)}; }
};

/// Result<T> holds either a value or an Error. Query with ok(); access the
/// value with value() (contract-checked) or value_or().
template <typename T>
class [[nodiscard]] Result {
 public:
  /*implicit*/ Result(T value) : value_(std::move(value)) {}
  /*implicit*/ Result(Error error) : error_(std::move(error)) {}

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    if (!ok()) value_failed();
    return *value_;
  }
  T& value() & {
    if (!ok()) value_failed();
    return *value_;
  }
  T&& value() && {
    if (!ok()) value_failed();
    return std::move(*value_);
  }

  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

  const Error& error() const {
    GREFAR_CHECK(!ok());
    return *error_;
  }

 private:
  // Out of line, so value() stays small enough to inline on hot paths
  // (the trace decoders call it for every field).
  [[noreturn, gnu::cold, gnu::noinline]] void value_failed() const {
    internal::contract_fail("ok()", __FILE__, __LINE__,
                            "Result::value() on error: " + error_->message);
  }

  std::optional<T> value_;
  std::optional<Error> error_;
};

/// Result<void> specialization-equivalent for operations with no payload.
class [[nodiscard]] Status {
 public:
  Status() = default;  // success
  /*implicit*/ Status(Error error) : error_(std::move(error)) {}

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Error& error() const {
    GREFAR_CHECK(!ok());
    return *error_;
  }

 private:
  std::optional<Error> error_;
};

}  // namespace grefar
