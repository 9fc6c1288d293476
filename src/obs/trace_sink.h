// TraceSink: the JSONL file that structured slot records go to.
//
// One sink serves a whole run (or a whole sweep): records arrive as compact
// single-line JSON and are appended to the file at `path`, one per line.
// Writes are mutex-guarded — several engines may share a sink — and
// serialization happens outside the lock.
//
// File output goes out in chunks of up to kFileChunkBytes: std::filebuf
// hands any write of 1 KiB or more straight to write(2), so a 14–20 KB slot
// record written on its own would pay that call's fixed cost once per
// record. Lines reach the file when the chunk fills and on flush().
//
// A failed file write (a full disk, /dev/full) is an error, not a lost log:
// the write_line() or flush() that hits it throws a ContractViolation naming
// the path. The destructor writes what is staged but can only report a
// failure on stderr, so callers flush() before letting the last reference
// go.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>

namespace grefar::obs {

class TraceSink {
 public:
  struct Options {
    /// JSONL output path (required); an existing file is truncated.
    std::string path;
  };

  explicit TraceSink(Options options);
  /// Writes the staged lines; a failure goes to stderr (see the header
  /// comment).
  ~TraceSink();

  /// Bytes of JSONL lines staged before one file write.
  static constexpr std::size_t kFileChunkBytes = std::size_t{64} << 10;

  /// Appends `line` (one compact JSON document, no newline) as one JSONL
  /// line. Throws ContractViolation when a file write fails.
  void write_line(std::string_view line);

  std::uint64_t records_written() const;

  /// Writes the staged lines and flushes the file stream. Throws
  /// ContractViolation when the write or the flush fails.
  void flush();

  const std::string& path() const { return options_.path; }

 private:
  /// Writes file_chunk_ to the file and empties it; mutex_ held.
  void write_chunk();
  /// Throws ContractViolation naming the path if the stream failed.
  void check_stream() const;

  Options options_;
  mutable std::mutex mutex_;
  std::ofstream file_;
  /// JSONL lines not yet written to the file.
  std::string file_chunk_;
  std::uint64_t records_written_ = 0;
};

}  // namespace grefar::obs
