// TraceSink: where structured slot records go.
//
// One sink serves a whole run (or a whole sweep): records arrive as compact
// single-line JSON and are (a) appended to a JSONL file when a path is
// configured, and (b) kept in a bounded in-memory ring buffer so tests and
// in-process tools can inspect the most recent records without touching the
// filesystem. Writes are mutex-guarded — several engines may share a sink —
// and serialization happens outside the lock. Once the ring is full, a new
// line reuses the evicted line's buffer, so a steady stream of similar-sized
// records allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace grefar::obs {

class TraceSink {
 public:
  struct Options {
    /// JSONL output path; empty keeps records in memory only.
    std::string path;
    /// How many of the most recent serialized records the ring retains.
    std::size_t ring_capacity = 256;
  };

  explicit TraceSink(Options options);
  ~TraceSink();

  /// Appends `line` (one compact JSON document, no newline) as one JSONL
  /// line: one file write, and a ring entry.
  void write_line(std::string_view line);

  /// Serializes `record` (compact) and appends it via write_line().
  void write(const JsonValue& record);

  /// Snapshot of the ring buffer, oldest first.
  std::vector<std::string> ring() const;

  std::uint64_t records_written() const;

  /// Flushes the file stream (called by the destructor too).
  void flush();

  const std::string& path() const { return options_.path; }

 private:
  Options options_;
  mutable std::mutex mutex_;
  std::ofstream file_;
  /// Ring storage; once full, ring_head_ is the oldest entry and the next
  /// to be overwritten.
  std::vector<std::string> ring_;
  std::size_t ring_head_ = 0;
  /// Line + newline staging for the file when there is no ring to stage in.
  std::string staging_;
  std::size_t longest_line_ = 0;  // with its newline; sizes new buffers
  std::uint64_t records_written_ = 0;
};

}  // namespace grefar::obs
