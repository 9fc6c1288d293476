// TracingInspector: SlotInspector -> structured JSONL slot records.
//
// Attached to a SimulationEngine, it converts every SlotRecord into one JSON
// object — prices, queue state, the scheduler's ask, what the engine actually
// routed/served, per-DC capacity and billed energy, per-account work,
// fairness, completions, post-slot queues — plus scheduler-internal
// annotations (TraceScope: tie-group splits, drift-weight signs) when the
// scheduler filled any. Records go to a shared TraceSink (JSONL file and/or
// in-memory ring).
//
// Records are written straight into a reused line buffer, with no document
// tree in between: keys go out in a fixed sorted order (the order a
// JsonObject would give them) and numbers through append_json_number, so the
// line is byte-identical to dumping the equivalent JsonValue (pinned against
// a DOM oracle by tests/obs). Every number comes from the deterministic
// simulation state, so two runs of the same seed produce byte-identical
// traces.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace_sink.h"
#include "sim/slot_inspector.h"

namespace grefar::obs {

struct TracingInspectorOptions {
  /// Include the N x J matrices (ask, routed, served, post-slot queues).
  /// Off keeps records small for long horizons at the cost of per-(i,j)
  /// detail; the per-DC and per-account aggregates are always emitted.
  bool include_matrices = true;
  /// Per-type / per-account vectors longer than this — and matrix rows with
  /// more columns than this — are emitted in sparse form, {"n": length,
  /// "idx": [...], "val": [...]} over the non-zero entries, instead of a
  /// dense array. At a million accounts a dense per-slot array would dwarf
  /// the trace; at the default threshold every existing (small) scenario
  /// keeps its dense byte-identical records.
  std::size_t sparse_array_threshold = 4096;
};

class TracingInspector final : public SlotInspector {
 public:
  explicit TracingInspector(std::shared_ptr<TraceSink> sink,
                            TracingInspectorOptions options = {});

  void inspect(const SlotRecord& record) override;

  const std::shared_ptr<TraceSink>& sink() const { return sink_; }
  std::int64_t slots_traced() const { return slots_traced_; }

 private:
  std::shared_ptr<TraceSink> sink_;
  TracingInspectorOptions options_;
  std::string line_;  // the record being written; keeps capacity across slots
  std::int64_t slots_traced_ = 0;
};

/// Fans one SlotRecord out to several inspectors, in order. Lets a tracer
/// ride alongside an already-attached inspector (the invariant auditor) on
/// the engine's single inspector slot.
class TeeInspector final : public SlotInspector {
 public:
  explicit TeeInspector(std::vector<std::shared_ptr<SlotInspector>> inspectors);

  void inspect(const SlotRecord& record) override;

 private:
  std::vector<std::shared_ptr<SlotInspector>> inspectors_;
};

}  // namespace grefar::obs
