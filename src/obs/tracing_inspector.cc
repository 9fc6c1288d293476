#include "obs/tracing_inspector.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string_view>

#include "obs/trace_scope.h"
#include "util/check.h"
#include "util/json.h"
#include "util/matrix.h"

namespace grefar::obs {

namespace {

// Writes compact JSON through a cursor into a reused buffer: each token
// checks the room left once and writes its bytes in place, numbers through
// write_json_number. Keys are trusted literals (written unescaped), and
// callers emit each object's keys in sorted order — the order a JsonObject
// (std::map) serializes them in — so the text matches JsonValue::dump of the
// equivalent tree byte for byte.
class LineWriter {
 public:
  /// Writes from the start of `buffer`, whose size is the room it offers;
  /// the buffer grows (and keeps its size across records) when a record
  /// needs more.
  explicit LineWriter(std::string& buffer)
      : buffer_(buffer), p_(buffer.data()), end_(p_ + buffer.size()) {}

  /// The text written so far.
  std::string_view line() const {
    return {buffer_.data(), static_cast<std::size_t>(p_ - buffer_.data())};
  }

  void key(std::string_view k) {
    room(k.size() + 4);
    separate();
    *p_++ = '"';
    std::memcpy(p_, k.data(), k.size());
    p_ += k.size();
    *p_++ = '"';
    *p_++ = ':';
    comma_ = false;
  }
  void number(double d) {
    room(kJsonNumberMaxChars + 1);
    separate();
    p_ = write_json_number(d, p_);
    comma_ = true;
  }
  void field(std::string_view k, double d) {
    key(k);
    number(d);
  }
  void null() {
    room(5);
    separate();
    std::memcpy(p_, "null", 4);
    p_ += 4;
    comma_ = true;
  }
  void open(char bracket) {
    room(2);
    separate();
    *p_++ = bracket;
    comma_ = false;
  }
  void close(char bracket) {
    room(1);
    *p_++ = bracket;
    comma_ = true;
  }

  template <typename T>
  void dense(std::span<const T> values) {
    open('[');
    for (T v : values) number(static_cast<double>(v));
    close(']');
  }

  // Dense array up to `threshold` entries; past it, a sparse
  // {"idx", "n", "val"} object over the non-zero entries (see
  // TracingInspectorOptions::sparse_array_threshold), written in two passes.
  template <typename T>
  void dense_or_sparse(std::span<const T> values, std::size_t threshold) {
    if (values.size() <= threshold) {
      dense(values);
      return;
    }
    open('{');
    key("idx");
    open('[');
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] != T{}) number(static_cast<double>(i));
    }
    close(']');
    key("n");
    number(static_cast<double>(values.size()));
    key("val");
    open('[');
    for (T v : values) {
      if (v != T{}) number(static_cast<double>(v));
    }
    close(']');
    close('}');
  }

  // One array per row, each dense or sparse by the row length (at J = 10^6
  // a dense row dump would dwarf the trace).
  void rows(const MatrixD& m, std::size_t threshold) {
    open('[');
    const double* data = m.data().data();
    for (std::size_t i = 0; i < m.rows(); ++i) {
      dense_or_sparse(std::span<const double>(data + i * m.cols(), m.cols()), threshold);
    }
    close(']');
  }

 private:
  // Makes room for `n` more bytes.
  void room(std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) grow(n);
  }
  [[gnu::noinline]] void grow(std::size_t n) {
    const auto used = static_cast<std::size_t>(p_ - buffer_.data());
    buffer_.resize(std::max(2 * buffer_.size(), used + std::max<std::size_t>(n, 4096)));
    p_ = buffer_.data() + used;
    end_ = buffer_.data() + buffer_.size();
  }
  void separate() {
    if (comma_) *p_++ = ',';
  }

  std::string& buffer_;
  char* p_;
  char* end_;
  bool comma_ = false;
};

template <typename T>
std::span<const T> span_of(const std::vector<T>& v) {
  return {v.data(), v.size()};
}

}  // namespace

TracingInspector::TracingInspector(std::shared_ptr<TraceSink> sink,
                                   TracingInspectorOptions options)
    : sink_(std::move(sink)), options_(options) {
  GREFAR_CHECK(sink_ != nullptr);
}

void TracingInspector::inspect(const SlotRecord& record) {
  GREFAR_CHECK(record.obs != nullptr && record.action != nullptr &&
               record.routed != nullptr && record.served_work != nullptr);
  const std::size_t sparse_at = options_.sparse_array_threshold;
  LineWriter w(buffer_);
  // Keys in sorted order at every level; see LineWriter.
  w.open('{');
  if (record.account_work != nullptr) {
    w.key("account_work");
    w.dense_or_sparse(span_of(*record.account_work), sparse_at);
  }
  if (record.admission_active) {
    // Admission / value economics block (workload/admission.h): emitted only
    // for runs where a policy or valued arrivals make it meaningful, so
    // plain traces keep their pre-admission shape byte-for-byte.
    w.key("admission");
    w.open('{');
    w.field("abandoned_jobs", record.abandoned_jobs);
    w.field("abandoned_value", record.abandoned_value);
    w.field("abandoned_work", record.abandoned_work);
    w.field("admitted_value", record.admitted_value);
    w.field("deadline_violations", static_cast<double>(record.deadline_violations));
    w.field("decay_loss", record.decay_loss);
    if (record.offered != nullptr) {
      w.key("offered");
      w.dense_or_sparse(span_of(*record.offered), sparse_at);
    }
    w.field("queued_value_after", record.queued_value_after);
    w.field("realized_value", record.realized_value);
    w.field("rejected_value", record.rejected_value);
    w.close('}');
  }
  if (record.scope != nullptr) {
    const TraceScope& scope = *record.scope;
    w.key("annotations");
    w.open('{');
    if (scope.admission.active) {
      // What the admission policy saw and decided, including the value-
      // density threshold it applied (the engine fills these, not the
      // scheduler). NaN thresholds serialize as null.
      const TraceScope::Admission& a = scope.admission;
      w.key("admission");
      w.open('{');
      w.field("admitted_jobs", static_cast<double>(a.admitted_jobs));
      w.field("admitted_value", a.admitted_value);
      w.field("offered_jobs", static_cast<double>(a.offered_jobs));
      w.field("rejected_jobs", static_cast<double>(a.rejected_jobs));
      w.field("rejected_value", a.rejected_value);
      w.key("threshold");
      if (std::isnan(a.threshold)) {
        w.null();
      } else {
        w.number(a.threshold);
      }
      w.close('}');
    }
    w.field("drift_weights_negative", static_cast<double>(scope.drift_weights_negative));
    w.field("drift_weights_nonnegative",
            static_cast<double>(scope.drift_weights_nonnegative));
    w.key("tie_splits");
    w.open('[');
    for (const auto& split : scope.tie_splits) {
      w.open('{');
      w.field("group_size", static_cast<double>(split.group_size));
      w.field("job_type", static_cast<double>(split.job_type));
      w.field("jobs", split.jobs);
      w.field("zero_capacity_skipped", static_cast<double>(split.zero_capacity_skipped));
      w.close('}');
    }
    w.close(']');
    w.close('}');
  }
  if (record.arrivals != nullptr) {
    w.key("arrivals");
    w.dense_or_sparse(span_of(*record.arrivals), sparse_at);
  }
  if (record.central_after != nullptr) {
    w.key("central_after");
    w.dense_or_sparse(span_of(*record.central_after), sparse_at);
  }
  w.key("central_queue");
  w.dense_or_sparse(span_of(record.obs->central_queue), sparse_at);
  if (record.dc_after != nullptr) {
    w.key("dc_after");
    w.rows(*record.dc_after, sparse_at);
  }
  if (record.dc_capacity != nullptr) {
    w.key("dc_capacity");
    w.dense(span_of(*record.dc_capacity));
  }
  if (record.dc_completions != nullptr) {
    w.key("dc_completions");
    w.dense(span_of(*record.dc_completions));
  }
  if (record.dc_delay_sum != nullptr) {
    w.key("dc_delay_sum");
    w.dense(span_of(*record.dc_delay_sum));
  }
  if (record.dc_energy_cost != nullptr) {
    w.key("dc_energy_cost");
    w.dense(span_of(*record.dc_energy_cost));
  }
  w.key("dc_queue");
  w.rows(record.obs->dc_queue, sparse_at);
  w.field("fairness", record.fairness);
  w.key("prices");
  w.dense(span_of(record.obs->prices));
  w.key("process_ask");
  w.rows(record.action->process, sparse_at);
  w.key("route_ask");
  w.rows(record.action->route, sparse_at);
  w.key("routed");
  w.rows(*record.routed, sparse_at);
  w.key("served_work");
  w.rows(*record.served_work, sparse_at);
  w.field("slot", static_cast<double>(record.slot));
  w.close('}');
  sink_->write_line(w.line());
  ++slots_traced_;
}

void TracingInspector::finish() { sink_->flush(); }

TeeInspector::TeeInspector(std::vector<std::shared_ptr<SlotInspector>> inspectors)
    : inspectors_(std::move(inspectors)) {
  for (const auto& inspector : inspectors_) GREFAR_CHECK(inspector != nullptr);
}

void TeeInspector::inspect(const SlotRecord& record) {
  for (const auto& inspector : inspectors_) inspector->inspect(record);
}

void TeeInspector::finish() {
  for (const auto& inspector : inspectors_) inspector->finish();
}

}  // namespace grefar::obs
