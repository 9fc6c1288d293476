// In-memory spans for the traced run. Spans are recorded from the harness
// around calls into each layer (never from inside src/), kept in memory and
// written as JSONL when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint8_t {
  kRun,         // one timed repetition (root)
  kIngest,      // standalone drain of the trace files (root)
  kIngestSlot,  // one slot of that drain
  kDecide,      // the wrapped Scheduler::decide_into
  kStep,        // SimulationEngine::step()
  kFlush,       // one wrapped flush-inspector inspect()
  kLeg,         // one sweep leg
};
const char* span_name(SpanKind kind);

/// One span: `id` is the slot or leg it belongs to (-1 for roots), `parent`
/// the index of the enclosing span in the same log (-1 for roots).
struct Span {
  SpanKind kind = SpanKind::kRun;
  std::int64_t id = -1;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Append-only span log shared by the threads of one run (solve, flush and
/// sweep workers), guarded by one mutex.
class SpanLog {
 public:
  /// Opens a span now; returns its index for close() and as a parent.
  std::int32_t open(SpanKind kind, std::int64_t id, std::int32_t parent);
  void close(std::int32_t index);
  /// Adds a span whose clock reads were taken by the caller.
  std::int32_t add(SpanKind kind, std::int64_t id, std::int32_t parent,
                   std::int64_t start_ns, std::int64_t end_ns);
  /// Sets both ends of a span added earlier as a placeholder parent.
  void set_times(std::int32_t index, std::int64_t start_ns, std::int64_t end_ns);

  std::vector<Span> snapshot() const;
  /// One JSON object per line: name, id, parent, start_ns, end_ns.
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it (children on other threads may overlap).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per kind: {total duration, total self time, count}.
struct KindTotals {
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::size_t count = 0;
};
std::map<SpanKind, KindTotals> totals_by_kind(const std::vector<Span>& spans);

}  // namespace perfbench
