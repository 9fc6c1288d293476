#include "trace/stream_csv.h"

#include <utility>

#include "util/check.h"

namespace grefar {

std::string CsvPosition::to_string() const {
  return "byte " + std::to_string(byte) + " (line " + std::to_string(line) +
         ", col " + std::to_string(column) + ")";
}

namespace {
constexpr char kSeparator = ',';
constexpr char kQuote = '"';

/// End of the unquoted run starting at `p`: the first ',', '\n' or '\r',
/// or `end`. (Fields are short: a byte loop beats eight-byte words here.)
const char* unquoted_run_end(const char* p, const char* end) {
  while (p != end && *p != kSeparator && *p != '\n' && *p != '\r') ++p;
  return p;
}
}  // namespace

StreamCsvParser::StreamCsvParser(RowCallback on_row, CsvLimits limits)
    : on_row_(std::move(on_row)), limits_(limits) {
  GREFAR_CHECK(static_cast<bool>(on_row_));
}

Status StreamCsvParser::fail(std::string message) {
  failed_ = true;
  error_ = std::move(message);
  return Error::make(error_);
}

Status StreamCsvParser::field_too_long() {
  return fail("CSV field exceeds max_field_bytes=" +
              std::to_string(limits_.max_field_bytes) + " at " +
              pos_.to_string());
}

Status StreamCsvParser::append_field_byte(char c) {
  if (limits_.max_field_bytes != 0 &&
      field_.size() >= limits_.max_field_bytes) {
    return field_too_long();
  }
  field_.push_back(c);
  return {};
}

void StreamCsvParser::advance(char c) {
  ++pos_.byte;
  if (c == '\n') {
    ++pos_.line;
    pos_.column = 1;
  } else {
    ++pos_.column;
  }
}

void StreamCsvParser::advance_span(std::size_t n) {
  pos_.byte += n;
  pos_.column += n;
}

Status StreamCsvParser::too_many_fields() {
  return fail("CSV row exceeds max_fields_per_row=" +
              std::to_string(limits_.max_fields_per_row) + " at " +
              pos_.to_string());
}

bool StreamCsvParser::row_full() const {
  return limits_.max_fields_per_row != 0 &&
         row_width_ >= limits_.max_fields_per_row;
}

void StreamCsvParser::make_room() {
  if (row_width_ == row_.size()) {
    row_.emplace_back();
    spans_.emplace_back();
  }
}

void StreamCsvParser::own_row_fields() {
  for (std::size_t i = 0; i < row_width_; ++i) {
    spans_[i] = {owned_bytes_.size(), row_[i].size()};
    owned_bytes_ += row_[i];
  }
  row_owns_ = true;
}

Status StreamCsvParser::end_owned_field() {
  if (row_full()) return too_many_fields();
  if (!row_owns_) own_row_fields();
  make_room();
  spans_[row_width_] = {owned_bytes_.size(), field_.size()};
  owned_bytes_ += field_;
  ++row_width_;
  field_.clear();
  return {};
}

Status StreamCsvParser::end_row() {
  if (limits_.max_rows != 0 && rows_emitted_ >= limits_.max_rows) {
    return fail("CSV document exceeds max_rows=" +
                std::to_string(limits_.max_rows) + " at " + pos_.to_string());
  }
  if (row_owns_) {
    // owned_bytes_ has stopped growing for this row: point the views at it.
    for (std::size_t i = 0; i < row_width_; ++i) {
      row_[i] = std::string_view(owned_bytes_).substr(spans_[i].at, spans_[i].size);
    }
  }
  if (Status st = on_row_(CsvRow(row_.data(), row_width_), rows_emitted_,
                          row_start_);
      !st.ok()) {
    failed_ = true;
    error_ = st.error().message;
    return st;
  }
  ++rows_emitted_;
  row_width_ = 0;
  owned_bytes_.clear();
  row_owns_ = false;
  state_ = State::kRowStart;
  return {};
}

Status StreamCsvParser::view_fields(const char*& p, const char* end) {
  // No byte from `base` to the current field's terminator is a '\n', so
  // positions there are pos_ plus the distance from `base`; pos_ catches
  // up before anything reads it.
  const char* base = p;
  const auto catch_up = [&](const char* to) {
    advance_span(static_cast<std::size_t>(to - base));
    base = to;
  };
  const char* field = p;
  while (true) {
    const char* term = unquoted_run_end(field, end);
    const auto n = static_cast<std::size_t>(term - field);
    if (limits_.max_field_bytes != 0 && n > limits_.max_field_bytes) {
      catch_up(field + limits_.max_field_bytes);
      return field_too_long();
    }
    if (term == end || *term == '\r') {
      // It straddles the chunk or holds a '\r': the byte machine's field_.
      field_.assign(field, n);
      state_ = State::kUnquoted;
      catch_up(term);
      p = term;
      return {};
    }
    if (row_full()) {
      catch_up(term);
      return too_many_fields();
    }
    make_room();
    row_[row_width_++] = std::string_view(field, n);
    if (*term == '\n') {
      catch_up(term);
      if (Status st = end_row(); !st.ok()) return st;
      advance('\n');
      p = term + 1;
      return {};
    }
    field = term + 1;  // past the ','
    if (field == end || *field == kQuote || *field == '\r') {
      state_ = State::kFieldStart;
      catch_up(field);
      p = field;
      return {};
    }
  }
}

Status StreamCsvParser::feed(std::string_view chunk) {
  if (failed_) return Error::make(error_);
  if (finished_) return fail("StreamCsvParser::feed() after finish()");

  // Every byte of the input is consumed exactly once, by advance() or
  // advance_span(), so byte/line/column stay exact across arbitrary chunk
  // boundaries.
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  while (p != end) {
    const char c = *p;
    if (state_ == State::kRowStart) row_start_ = pos_;

    const bool field_start =
        state_ == State::kRowStart || state_ == State::kFieldStart;
    if (field_start && !row_owns_ && c != kQuote && c != '\r') {
      // Unquoted fields of a row that has not left the chunk: views.
      if (Status st = view_fields(p, end); !st.ok()) return st;
      continue;
    }
    if (c != '\r' && (state_ == State::kUnquoted ||
                      (field_start && c != kQuote))) {
      // An unquoted run into field_: the rest of a field that straddled a
      // chunk or held a '\r', or a field of a row already owned.
      const char* run_end = unquoted_run_end(p, end);
      const auto n = static_cast<std::size_t>(run_end - p);
      if (limits_.max_field_bytes != 0 &&
          field_.size() + n > limits_.max_field_bytes) {
        advance_span(limits_.max_field_bytes - field_.size());
        return field_too_long();
      }
      field_.append(p, n);
      state_ = State::kUnquoted;
      advance_span(n);
      p = run_end;
      if (p == end || *p == '\r') continue;
      if (Status st = end_owned_field(); !st.ok()) return st;
      if (*p == kSeparator) {
        state_ = State::kFieldStart;
      } else if (Status st = end_row(); !st.ok()) {  // *p is '\n'
        return st;
      }
      advance(*p);
      ++p;
      continue;
    }

    // The byte machine, one byte at a time: a field opening with a quote,
    // a quoted section, and every '\r' outside one.
    switch (state_) {
      case State::kRowStart:
      case State::kFieldStart:
        if (c == kQuote) {
          quote_open_ = pos_;
          state_ = State::kQuoted;
        }
        // else '\r': dropped; the row does not become dirty (kRowStart
        // persists).
        break;

      case State::kUnquoted:
        break;  // '\r' is dropped anywhere outside quotes

      case State::kQuoted:
        if (c == kQuote) {
          state_ = State::kQuoteEnd;
        } else {
          if (Status st = append_field_byte(c); !st.ok()) return st;
        }
        break;

      case State::kQuoteEnd:
        if (c == kQuote) {
          // Doubled quote: one literal quote byte, still inside the section.
          if (Status st = append_field_byte(c); !st.ok()) return st;
          state_ = State::kQuoted;
        } else if (c == kSeparator) {
          if (Status st = end_owned_field(); !st.ok()) return st;
          state_ = State::kFieldStart;
        } else if (c == '\n') {
          if (Status st = end_owned_field(); !st.ok()) return st;
          if (Status st = end_row(); !st.ok()) return st;
        } else if (c == '\r') {
          // dropped; still "just closed a quote".
        } else {
          // Lenient concatenation: "a"x parses as the field ax.
          if (Status st = append_field_byte(c); !st.ok()) return st;
          state_ = State::kUnquoted;
        }
        break;
    }
    advance(c);
    ++p;
  }
  // The caller may reuse the chunk: a row still open keeps its fields.
  if (state_ != State::kRowStart && !row_owns_) own_row_fields();
  return {};
}

Status StreamCsvParser::finish() {
  if (failed_) return Error::make(error_);
  if (finished_) return {};
  finished_ = true;

  if (state_ == State::kQuoted) {
    return fail("unterminated quoted field opened at " +
                quote_open_.to_string());
  }
  // A final row without a trailing newline is emitted iff it consumed any
  // bytes (kRowStart means nothing since the last terminator). Its last
  // field is in field_ (empty after a trailing separator).
  if (state_ != State::kRowStart) {
    if (Status st = end_owned_field(); !st.ok()) return st;
    if (Status st = end_row(); !st.ok()) return st;
  }
  return {};
}

Status parse_csv(std::string_view text,
                 const StreamCsvParser::RowCallback& on_row, CsvLimits limits) {
  StreamCsvParser parser(on_row, limits);
  if (Status st = parser.feed(text); !st.ok()) return st;
  return parser.finish();
}

}  // namespace grefar
