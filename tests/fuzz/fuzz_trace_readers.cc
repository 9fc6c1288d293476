// Fuzz harness for the CSV trace readers. The first input byte selects the
// number of job types / data centers (1..8); the remainder is the CSV
// text, drained the way the batch readers drain a file (a reorder window
// covering the whole document) through the job-trace source's counts API,
// its batch API (both schema versions, so the v2 row decoder too) and the
// price-trace source. Malformed rows surface as Result errors;
// grefar::ContractViolation is the defined failure mode for
// contract-checked construction and is caught. Sanitizer reports or any
// other escape are findings.
#include <cstddef>
#include <cstdint>
#include <string>

#include "support/trace_text.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::size_t width = 1 + data[0] % 8;
  const std::string csv(reinterpret_cast<const char*>(data + 1), size - 1);
  try {
    (void)grefar::drain_jobs(csv, width, grefar::kWholeDocument);
  } catch (const grefar::ContractViolation&) {
  }
  try {
    (void)grefar::drain_batches(csv, width, grefar::kWholeDocument);
  } catch (const grefar::ContractViolation&) {
  }
  try {
    (void)grefar::drain_prices(csv, width, grefar::kWholeDocument);
  } catch (const grefar::ContractViolation&) {
  }
  return 0;
}
