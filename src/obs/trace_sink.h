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
//
// File output goes out in chunks of up to kFileChunkBytes: std::filebuf
// hands any write of 1 KiB or more straight to write(2), so a 14–20 KB slot
// record written on its own would pay that call's fixed cost once per
// record. Lines reach the file when the chunk fills, on flush() and on
// destruction.
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

  /// Bytes of JSONL lines staged before one file write.
  static constexpr std::size_t kFileChunkBytes = std::size_t{64} << 10;

  /// Appends `line` (one compact JSON document, no newline) as one JSONL
  /// line: staged for the file, and a ring entry.
  void write_line(std::string_view line);

  /// Serializes `record` (compact) and appends it via write_line().
  void write(const JsonValue& record);

  /// Snapshot of the ring buffer, oldest first.
  std::vector<std::string> ring() const;

  std::uint64_t records_written() const;

  /// Writes the staged lines and flushes the file stream (called by the
  /// destructor too).
  void flush();

  const std::string& path() const { return options_.path; }

 private:
  /// Writes file_chunk_ to the file and empties it; mutex_ held.
  void write_chunk();

  Options options_;
  mutable std::mutex mutex_;
  std::ofstream file_;
  /// Ring storage; once full, ring_head_ is the oldest entry and the next
  /// to be overwritten.
  std::vector<std::string> ring_;
  std::size_t ring_head_ = 0;
  /// JSONL lines not yet written to the file.
  std::string file_chunk_;
  std::size_t longest_line_ = 0;  // sizes new ring buffers
  std::uint64_t records_written_ = 0;
};

}  // namespace grefar::obs
