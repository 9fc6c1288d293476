// Differential fuzz harness for the JSON number formatter: every 8-byte
// word of the input is read as the bit pattern of a double (host byte
// order), and append_json_number's text must equal the printf round-trip
// loop it replaced, byte for byte, and read back as the same double. A
// non-finite pattern must be rejected with a ContractViolation. A
// divergence aborts (the finding).
#include <bit>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "../util/json_number_reference.h"
#include "util/check.h"
#include "util/json.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  for (std::size_t at = 0; at + sizeof(double) <= size; at += sizeof(double)) {
    double d = 0.0;
    std::memcpy(&d, data + at, sizeof(d));
    std::string text;
    if (!std::isfinite(d)) {
      try {
        grefar::append_json_number(d, text);
      } catch (const grefar::ContractViolation&) {
        continue;
      }
      std::abort();  // a non-finite value was given JSON text
    }
    grefar::append_json_number(d, text);
    if (text != grefar::testing_reference::printf_json_number(d)) std::abort();
    double back = 0.0;
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), back);
    if (ec != std::errc{} || ptr != text.data() + text.size() ||
        std::bit_cast<std::uint64_t>(back) != std::bit_cast<std::uint64_t>(d)) {
      std::abort();
    }
  }
  return 0;
}
