#include "obs/trace_sink.h"

#include <algorithm>

#include "util/check.h"

namespace grefar::obs {

TraceSink::TraceSink(Options options) : options_(std::move(options)) {
  if (!options_.path.empty()) {
    file_.open(options_.path, std::ios::out | std::ios::trunc);
    GREFAR_CHECK_MSG(file_.is_open(),
                     "cannot open trace file '" << options_.path << "' for writing");
  }
}

TraceSink::~TraceSink() { flush(); }

void TraceSink::write_line(std::string_view line) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string* entry = &staging_;
  if (options_.ring_capacity > 0) {
    if (ring_.size() < options_.ring_capacity) {
      entry = &ring_.emplace_back();
    } else {
      entry = &ring_[ring_head_];
      ring_head_ = (ring_head_ + 1) % ring_.size();
    }
  }
  // Lines reuse the evicted line's buffer. A buffer too small for the line
  // is replaced by one sized to the longest line so far plus 1/8, not grown
  // by std::string's doubling: the ring holds ring_capacity lines of similar
  // length, doubling would leave up to half of it slack, and this way a
  // buffer is replaced again only after a new longest line.
  const std::size_t needed = line.size() + 1;  // + newline for the file
  longest_line_ = std::max(longest_line_, needed);
  if (entry->capacity() < needed) {
    std::string grown;
    grown.reserve(longest_line_ + longest_line_ / 8);
    entry->swap(grown);
  }
  entry->assign(line);
  if (file_.is_open()) {
    entry->push_back('\n');
    file_.write(entry->data(), static_cast<std::streamsize>(entry->size()));
    entry->pop_back();
  }
  ++records_written_;
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
  if (file_.is_open()) file_.flush();
}

}  // namespace grefar::obs
