#include "obs/trace_sink.h"

#include <algorithm>

#include "util/check.h"

namespace grefar::obs {

TraceSink::TraceSink(Options options) : options_(std::move(options)) {
  if (!options_.path.empty()) {
    file_.open(options_.path, std::ios::out | std::ios::trunc);
    GREFAR_CHECK_MSG(file_.is_open(),
                     "cannot open trace file '" << options_.path << "' for writing");
    file_chunk_.reserve(kFileChunkBytes);
  }
}

TraceSink::~TraceSink() { flush(); }

void TraceSink::write_line(std::string_view line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.ring_capacity > 0) {
    std::string* entry = nullptr;
    if (ring_.size() < options_.ring_capacity) {
      entry = &ring_.emplace_back();
    } else {
      entry = &ring_[ring_head_];
      ring_head_ = (ring_head_ + 1) % ring_.size();
    }
    // Lines reuse the evicted line's buffer. A buffer too small for the
    // line is replaced by one sized to the longest line so far plus 1/8,
    // not grown by std::string's doubling: the ring holds ring_capacity
    // lines of similar length, doubling would leave up to half of it slack,
    // and this way a buffer is replaced again only after a new longest line.
    longest_line_ = std::max(longest_line_, line.size());
    if (entry->capacity() < line.size()) {
      std::string grown;
      grown.reserve(longest_line_ + longest_line_ / 8);
      entry->swap(grown);
    }
    entry->assign(line);
  }
  if (file_.is_open()) {
    if (file_chunk_.size() + line.size() + 1 > kFileChunkBytes) write_chunk();
    if (line.size() + 1 > kFileChunkBytes) {
      file_.write(line.data(), static_cast<std::streamsize>(line.size()));
      file_.put('\n');
    } else {
      file_chunk_.append(line);
      file_chunk_.push_back('\n');
    }
  }
  ++records_written_;
}

void TraceSink::write_chunk() {
  file_.write(file_chunk_.data(), static_cast<std::streamsize>(file_chunk_.size()));
  file_chunk_.clear();
}

void TraceSink::write(const JsonValue& record) { write_line(record.dump()); }

std::vector<std::string> TraceSink::ring() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(ring_.size());
  for (std::size_t k = 0; k < ring_.size(); ++k) {
    out.push_back(ring_[(ring_head_ + k) % ring_.size()]);
  }
  return out;
}

std::uint64_t TraceSink::records_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_written_;
}

void TraceSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!file_.is_open()) return;
  write_chunk();
  file_.flush();
}

}  // namespace grefar::obs
