#include "harness/spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun: return "run";
    case SpanKind::kIngest: return "ingest";
    case SpanKind::kIngestSlot: return "ingest.slot";
    case SpanKind::kDecide: return "decide";
    case SpanKind::kStep: return "step";
    case SpanKind::kFlush: return "flush";
    case SpanKind::kLeg: return "leg";
  }
  return "?";
}

std::int32_t SpanLog::open(SpanKind kind, std::int64_t id, std::int32_t parent) {
  return add(kind, id, parent, now_ns(), 0);
}

void SpanLog::close(std::int32_t index) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::int32_t SpanLog::add(SpanKind kind, std::int64_t id, std::int32_t parent,
                          std::int64_t start_ns, std::int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{kind, id, parent, start_ns, end_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::set_times(std::int32_t index, std::int64_t start_ns, std::int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.start_ns = start_ns;
  s.end_ns = end_ns;
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans) {
    out << "{\"name\":\"" << span_name(s.kind) << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the union covered so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<SpanKind, KindTotals> totals_by_kind(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<SpanKind, KindTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    KindTotals& t = out[spans[i].kind];
    t.total_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.self_ns += static_cast<double>(self[i]);
    ++t.count;
  }
  return out;
}

}  // namespace perfbench
