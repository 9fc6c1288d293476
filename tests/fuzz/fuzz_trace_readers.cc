// Fuzz harness for the CSV trace readers. The first input byte selects the
// number of job types / data centers (1..8); the remainder is the CSV
// text, fed to the v1 job-trace reader, the valued job-trace reader (both
// schema versions, so the v2 row decoder too) and the price-trace reader.
// Malformed rows surface as Result errors; grefar::ContractViolation is the
// defined failure mode for contract-checked construction and is caught.
// Sanitizer reports or any other escape are findings.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "trace/job_trace.h"
#include "trace/price_trace.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::size_t width = 1 + data[0] % 8;
  const std::string_view csv(reinterpret_cast<const char*>(data + 1),
                             size - 1);
  try {
    (void)grefar::job_trace_from_csv(csv, width);
  } catch (const grefar::ContractViolation&) {
  }
  try {
    (void)grefar::valued_job_trace_from_csv(csv, width);
  } catch (const grefar::ContractViolation&) {
  }
  try {
    (void)grefar::price_trace_from_csv(csv, width);
  } catch (const grefar::ContractViolation&) {
  }
  return 0;
}
