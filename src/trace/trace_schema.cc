#include "trace/trace_schema.h"

#include <cmath>

#include "util/strings.h"

namespace grefar {
namespace {

const std::vector<std::string>& counts_header() {
  static const std::vector<std::string> h{"slot", "type", "count"};
  return h;
}

const std::vector<std::string>& valued_header() {
  static const std::vector<std::string> h{"slot",  "type",  "count",
                                          "value", "decay", "deadline"};
  return h;
}

std::string row_tag(const char* kind, std::uint64_t row_index,
                    const CsvPosition& row_start) {
  return std::string(kind) + " trace row " + std::to_string(row_index) +
         " at " + row_start.to_string();
}

}  // namespace

Status check_job_trace_header(const std::vector<std::string>& fields,
                              const CsvPosition& row_start) {
  if (fields != counts_header()) {
    return Error::make(
        "job trace must start with header 'slot,type,count' at " +
        row_start.to_string());
  }
  return {};
}

Result<JobTraceSchema> detect_job_trace_header(
    const std::vector<std::string>& fields, const CsvPosition& row_start) {
  if (fields == counts_header()) return JobTraceSchema::kCounts;
  if (fields == valued_header()) return JobTraceSchema::kValued;
  return Error::make(
      "job trace must start with header 'slot,type,count' (v1) or "
      "'slot,type,count,value,decay,deadline' (v2) at " +
      row_start.to_string());
}

Status check_price_trace_header(const std::vector<std::string>& fields,
                                const CsvPosition& row_start) {
  if (fields != std::vector<std::string>{"slot", "dc", "price"}) {
    return Error::make(
        "price trace must start with header 'slot,dc,price' at " +
        row_start.to_string());
  }
  return {};
}

Result<JobTraceRow> decode_job_trace_row(const std::vector<std::string>& fields,
                                         std::size_t num_types,
                                         std::uint64_t row_index,
                                         const CsvPosition& row_start) {
  if (fields.size() != 3) {
    return Error::make(row_tag("job", row_index, row_start) +
                       " needs 3 fields");
  }
  auto slot = parse_int(fields[0]);
  auto type = parse_int(fields[1]);
  auto count = parse_int(fields[2]);
  if (!slot.ok() || !type.ok() || !count.ok()) {
    return Error::make(row_tag("job", row_index, row_start) + " is malformed");
  }
  if (slot.value() < 0 || count.value() < 0) {
    return Error::make(row_tag("job", row_index, row_start) +
                       " has negative value");
  }
  if (type.value() < 0 ||
      static_cast<std::size_t>(type.value()) >= num_types) {
    return Error::make(row_tag("job", row_index, row_start) +
                       " has out-of-range type id");
  }
  return JobTraceRow{slot.value(), static_cast<std::size_t>(type.value()),
                     count.value()};
}

Result<ValuedJobTraceRow> decode_valued_job_trace_row(
    const std::vector<std::string>& fields, std::size_t num_types,
    std::uint64_t row_index, const CsvPosition& row_start) {
  if (fields.size() != 6) {
    return Error::make(row_tag("job", row_index, row_start) +
                       " needs 6 fields (v2 schema)");
  }
  auto slot = parse_int(fields[0]);
  auto type = parse_int(fields[1]);
  auto count = parse_int(fields[2]);
  auto value = parse_double(fields[3]);
  auto decay = parse_double(fields[4]);
  auto deadline = parse_int(fields[5]);
  if (!slot.ok() || !type.ok() || !count.ok() || !value.ok() || !decay.ok() ||
      !deadline.ok()) {
    return Error::make(row_tag("job", row_index, row_start) + " is malformed");
  }
  if (slot.value() < 0 || count.value() < 0) {
    return Error::make(row_tag("job", row_index, row_start) +
                       " has negative value");
  }
  if (type.value() < 0 ||
      static_cast<std::size_t>(type.value()) >= num_types) {
    return Error::make(row_tag("job", row_index, row_start) +
                       " has out-of-range type id");
  }
  if (!std::isfinite(value.value()) || value.value() < 0.0) {
    return Error::make(row_tag("job", row_index, row_start) +
                       " has a non-finite or negative job value");
  }
  if (!std::isfinite(decay.value()) || decay.value() < 0.0) {
    return Error::make(row_tag("job", row_index, row_start) +
                       " has a non-finite or negative decay rate");
  }
  if (deadline.value() < -1) {
    return Error::make(row_tag("job", row_index, row_start) +
                       " has a deadline below -1 (-1 means no deadline)");
  }
  return ValuedJobTraceRow{slot.value(),
                           static_cast<std::size_t>(type.value()),
                           count.value(),
                           value.value(),
                           decay.value(),
                           deadline.value()};
}

Result<PriceTraceRow> decode_price_trace_row(
    const std::vector<std::string>& fields, std::size_t num_dcs,
    std::uint64_t row_index, const CsvPosition& row_start) {
  if (fields.size() != 3) {
    return Error::make(row_tag("price", row_index, row_start) +
                       " needs 3 fields");
  }
  auto slot = parse_int(fields[0]);
  auto dc = parse_int(fields[1]);
  auto price = parse_double(fields[2]);
  if (!slot.ok() || !dc.ok() || !price.ok()) {
    return Error::make(row_tag("price", row_index, row_start) +
                       " is malformed");
  }
  if (slot.value() < 0) {
    return Error::make(row_tag("price", row_index, row_start) +
                       " has negative slot");
  }
  if (dc.value() < 0 || static_cast<std::size_t>(dc.value()) >= num_dcs) {
    return Error::make(row_tag("price", row_index, row_start) +
                       " has out-of-range dc id");
  }
  // from_chars accepts "nan", "inf" and "infinity": a non-finite price
  // would poison every energy sum downstream.
  if (!std::isfinite(price.value())) {
    return Error::make(row_tag("price", row_index, row_start) +
                       " has non-finite price");
  }
  if (price.value() <= 0.0) {
    return Error::make(row_tag("price", row_index, row_start) +
                       " has non-positive price");
  }
  return PriceTraceRow{slot.value(), static_cast<std::size_t>(dc.value()),
                       price.value()};
}

}  // namespace grefar
