// StreamCsvParser: the repo's one CSV parser — an incremental, SAX-style
// state machine modeled on the libcsv callback design (SNIPPETS.md §2).
//
// One dialect: ',' separates fields, '"' quotes them (RFC-4180 doubling
// inside a quoted section), a bare '\r' outside quotes is dropped (CRLF and
// stray carriage returns are tolerated), and bytes after a closing quote
// concatenate leniently ("a"x is the field ax).
//
// Bytes are *fed* in arbitrary chunks (a 64 KiB file read, a whole
// materialized string, one byte at a time — the row stream is identical,
// property-fuzzed in tests/fuzz/fuzz_stream_csv.cc); completed rows are
// handed to a callback as they finish, so a trace file far larger than RAM
// parses in O(one row) memory. The trace readers (trace/stream_source.h,
// which the batch readers in trace/job_trace.h and trace/price_trace.h
// drain) feed it a line at a time; there is deliberately no second CSV
// implementation to drift.
//
// Zero-copy fields: the callback receives each row as views, as libcsv's
// cb1(char*, size_t, void*) does. While a row lies inside one feed() chunk
// and holds no quote or '\r', each field is found by one scan for ',',
// '\n' and '\r' and handed over as a view into that chunk; nothing is
// copied. A field that opens with a quote, holds a '\r', or straddles a
// feed() boundary goes through the byte machine into the parser's field
// buffer. A row that holds such a field, or that is still open when a
// feed() ends, becomes *owned*: all of its fields, earlier ones included,
// are copied into parser storage and viewed there, so the caller may
// reuse a chunk as soon as feed() returns. Positions
// advance by span, so every byte offset, line and column in a diagnostic
// is the one the byte-at-a-time machine gives, and the limits are checked
// on each span as they were on each byte.
//
// Error discipline: every failure carries the absolute byte offset plus
// 1-based line/column of the offending byte ("unterminated quoted field
// opened at byte 57 (line 3, col 9)"), and hard resource limits — max field
// bytes, max fields per row, max rows — turn pathological inputs into
// diagnostics instead of memory exhaustion.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace grefar {

/// Hard resource limits: parsing fails (with the offending position) instead
/// of growing unboundedly. Zero disables an individual limit.
struct CsvLimits {
  std::uint64_t max_field_bytes = 1u << 20;   // 1 MiB per field
  std::uint64_t max_fields_per_row = 1u << 16;
  std::uint64_t max_rows = 0;                 // 0 = unlimited
};

/// A position in the byte stream: absolute offset plus 1-based line/column
/// (both counted in bytes; column resets after every row terminator).
struct CsvPosition {
  std::uint64_t byte = 0;
  std::uint64_t line = 1;
  std::uint64_t column = 1;

  /// "byte 57 (line 3, col 9)" — the form every diagnostic embeds.
  std::string to_string() const;
};

/// One row's decoded fields, in order.
using CsvRow = std::span<const std::string_view>;

class StreamCsvParser {
 public:
  /// Called once per completed row with the decoded fields and the position
  /// of the row's first byte; `row_index` is 0-based in emission order.
  /// The views are valid only during the call: they point into the chunk
  /// being fed or into parser-owned storage reused for the next row — copy
  /// what you keep. Returning a non-ok Status aborts parsing and surfaces
  /// through feed()/finish() unchanged.
  using RowCallback = std::function<Status(
      CsvRow fields, std::uint64_t row_index, const CsvPosition& row_start)>;

  explicit StreamCsvParser(RowCallback on_row, CsvLimits limits = {});

  /// Feeds one chunk; emits every row completed within it. The chunk need
  /// only outlive this call. After an error (from the machine or the
  /// callback) the parser is poisoned: further feed()/finish() calls return
  /// the same error.
  Status feed(std::string_view chunk);

  /// Ends the stream: emits the final unterminated row (no trailing
  /// newline), fails on an unterminated quoted field.
  Status finish();

  /// Position of the next unconsumed byte.
  const CsvPosition& position() const { return pos_; }
  std::uint64_t rows_emitted() const { return rows_emitted_; }

 private:
  enum class State : unsigned char {
    kRowStart,    // nothing consumed for the current row
    kFieldStart,  // just after a separator
    kUnquoted,    // inside an unquoted field held in field_
    kQuoted,      // inside a quoted section
    kQuoteEnd,    // just closed a quoted section
  };

  /// Where a field of an owned row lives in owned_bytes_.
  struct OwnedSpan {
    std::size_t at;
    std::size_t size;
  };

  Status fail(std::string message);          // poison + build Error
  Status field_too_long();                   // the max_field_bytes error at pos_
  Status too_many_fields();                  // the max_fields_per_row error
  bool row_full() const;                     // max_fields_per_row reached
  Status append_field_byte(char c);          // limit-checked
  void advance(char c);                      // one byte
  void advance_span(std::size_t n);          // n bytes, none of them '\n'
  void make_room();                          // row_/spans_ hold row_width_ + 1
  /// The fast path: consumes unquoted fields from `p` as views into the
  /// chunk, up to the end of the row or to a field the byte machine takes.
  Status view_fields(const char*& p, const char* end);
  Status end_owned_field();                  // field_, moved to owned_bytes_
  Status end_row();                          // emits row_ (fields all ended)
  void own_row_fields();                     // the row outlives the chunk

  RowCallback on_row_;
  CsvLimits limits_;

  State state_ = State::kRowStart;
  CsvPosition pos_;              // next byte to consume
  CsvPosition row_start_;        // first byte of the current row
  CsvPosition quote_open_;       // where the current quoted section opened
  std::string field_;            // the byte machine's current field
  std::vector<std::string_view> row_;  // fields of the current row (reused)
  std::vector<OwnedSpan> spans_;       // ... in owned_bytes_, when row_owns_
  std::string owned_bytes_;      // an owned row's fields
  bool row_owns_ = false;        // the row's fields live in owned_bytes_
  std::size_t row_width_ = 0;    // fields completed in the current row
  std::uint64_t rows_emitted_ = 0;
  bool finished_ = false;
  bool failed_ = false;
  std::string error_;            // sticky first error
};

/// Convenience: runs `text` through a StreamCsvParser in one feed + finish.
/// The callback contract is identical; chunking never changes the row stream.
Status parse_csv(std::string_view text, const StreamCsvParser::RowCallback& on_row,
                 CsvLimits limits = {});

}  // namespace grefar
