// The snprintf formatter append_json_number replaced, kept as the reference
// its output must match byte for byte (tests/util/json_test.cc and the
// fuzz_json_number harness).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace grefar::testing_reference {

/// %.0f for integral values below 1e15 in magnitude, else the first of
/// %.15g / %.16g / %.17g that strtod reads back exactly.
inline std::string printf_json_number(double d) {
  char buf[32];
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    return buf;
  }
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

}  // namespace grefar::testing_reference
