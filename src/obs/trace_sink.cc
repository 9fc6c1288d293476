#include "obs/trace_sink.h"

#include <iostream>
#include <utility>

#include "util/check.h"

namespace grefar::obs {

TraceSink::TraceSink(Options options) : options_(std::move(options)) {
  GREFAR_CHECK_MSG(!options_.path.empty(), "a TraceSink needs a file path");
  file_.open(options_.path, std::ios::out | std::ios::trunc);
  GREFAR_CHECK_MSG(file_.is_open(),
                   "cannot open trace file '" << options_.path << "' for writing");
  file_chunk_.reserve(kFileChunkBytes);
}

TraceSink::~TraceSink() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!file_.good()) return;  // the write that failed has thrown already
  file_.write(file_chunk_.data(), static_cast<std::streamsize>(file_chunk_.size()));
  file_.flush();
  if (!file_.good()) {
    std::cerr << "write to trace file '" << options_.path
              << "' failed; its last lines are lost\n";
  }
}

void TraceSink::check_stream() const {
  GREFAR_CHECK_MSG(file_.good(), "write to trace file '" << options_.path << "' failed");
}

void TraceSink::write_line(std::string_view line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_chunk_.size() + line.size() + 1 > kFileChunkBytes) write_chunk();
  if (line.size() + 1 > kFileChunkBytes) {
    file_.write(line.data(), static_cast<std::streamsize>(line.size()));
    file_.put('\n');
    check_stream();
  } else {
    file_chunk_.append(line);
    file_chunk_.push_back('\n');
  }
  ++records_written_;
}

void TraceSink::write_chunk() {
  file_.write(file_chunk_.data(), static_cast<std::streamsize>(file_chunk_.size()));
  file_chunk_.clear();
  check_stream();
}

std::uint64_t TraceSink::records_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_written_;
}

void TraceSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  write_chunk();
  file_.flush();
  check_stream();
}

}  // namespace grefar::obs
