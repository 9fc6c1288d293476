// Forwarding decorators that time layers from outside the program: a
// Scheduler wrapper around decide and a SlotInspector wrapper around each
// flush inspector. Both forward every call unchanged (the TraceScope pointer
// included), so the executed path is the one an unwrapped run takes.
//
// Untraced, the pair reads the clock twice per slot: at decide start and
// after the last flush inspector, which is the served-slot latency. Traced,
// they also record spans and, around each decide, the deltas of the solver
// counters in the thread's active CounterRegistry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/spans.h"
#include "obs/counters.h"
#include "sim/scheduler.h"
#include "sim/slot_inspector.h"

namespace perfbench {

/// Per-slot clock reads of one repetition, indexed by slot. The decide
/// probe writes a slot's start on the solve thread before handing the
/// record to the flush queue, whose lock orders it before the flush read.
struct SlotClock {
  explicit SlotClock(std::size_t slots) : decide_start_ns(slots, 0), latency_ns(slots, -1) {}
  std::vector<std::int64_t> decide_start_ns;
  std::vector<std::int64_t> latency_ns;  // -1 = slot never flushed
};

/// What the traced decide probe records for one slot.
struct DecideSample {
  std::int64_t slot = 0;
  double us = 0.0;
  std::uint64_t pgd_iterations = 0;
  std::uint64_t pgd_projections = 0;
  std::uint64_t pgd_fallback_steps = 0;
  std::uint64_t piece_rebuilds = 0;
};

/// Span sink and per-slot samples for a traced decide probe.
struct DecideTrace {
  SpanLog* spans = nullptr;
  std::int32_t parent = -1;  // span the decides nest under (updated per step)
  std::vector<DecideSample> samples;
};

class DecideProbe final : public grefar::Scheduler {
 public:
  /// `clock` and `trace` may each be null (no latency start / untraced).
  DecideProbe(std::shared_ptr<grefar::Scheduler> inner, SlotClock* clock,
              DecideTrace* trace)
      : inner_(std::move(inner)), clock_(clock), trace_(trace) {}

  grefar::SlotAction decide(const grefar::SlotObservation& obs) override {
    grefar::SlotAction out;
    around(obs.slot, [&] { out = inner_->decide(obs); });
    return out;
  }
  void decide_into(const grefar::SlotObservation& obs,
                   grefar::SlotAction& out) override {
    around(obs.slot, [&] { inner_->decide_into(obs, out); });
  }
  void decide_into(const grefar::SlotObservation& obs, grefar::SlotAction& out,
                   grefar::TraceScope* scope) override {
    around(obs.slot, [&] { inner_->decide_into(obs, out, scope); });
  }
  std::string name() const override { return inner_->name(); }

 private:
  struct Counts {
    std::uint64_t iterations = 0, projections = 0, fallback = 0, rebuilds = 0;
  };
  static Counts read_counts() {
    Counts c;
    if (const grefar::obs::CounterRegistry* r = grefar::obs::active_counters()) {
      c.iterations = r->counter("pgd.iterations");
      c.projections = r->counter("pgd.projections");
      c.fallback = r->counter("pgd.subgradient_fallback_steps");
      c.rebuilds = r->counter("per_slot.piece_rebuilds");
    }
    return c;
  }

  template <class Call>
  void around(std::int64_t slot, Call&& call) {
    const std::int64_t t0 = now_ns();
    if (clock_ != nullptr && slot >= 0 &&
        static_cast<std::size_t>(slot) < clock_->decide_start_ns.size()) {
      clock_->decide_start_ns[static_cast<std::size_t>(slot)] = t0;
    }
    if (trace_ == nullptr) {
      call();
      return;
    }
    const Counts before = read_counts();
    call();
    const std::int64_t t1 = now_ns();
    const Counts after = read_counts();
    trace_->spans->add(SpanKind::kDecide, slot, trace_->parent, t0, t1);
    trace_->samples.push_back(DecideSample{
        slot, static_cast<double>(t1 - t0) / 1e3, after.iterations - before.iterations,
        after.projections - before.projections, after.fallback - before.fallback,
        after.rebuilds - before.rebuilds});
  }

  std::shared_ptr<grefar::Scheduler> inner_;
  SlotClock* clock_;
  DecideTrace* trace_;
};

class InspectProbe final : public grefar::SlotInspector {
 public:
  /// `inner` may be null (a pure latency probe). `clock` non-null marks this
  /// as the last flush inspector, whose end defines the slot's latency.
  /// `spans` non-null records one flush span per slot under `parent`.
  InspectProbe(std::shared_ptr<grefar::SlotInspector> inner, SlotClock* clock,
               SpanLog* spans, std::int32_t parent)
      : inner_(std::move(inner)), clock_(clock), spans_(spans), parent_(parent) {}

  void inspect(const grefar::SlotRecord& record) override {
    const std::int64_t t0 = spans_ != nullptr ? now_ns() : 0;
    if (inner_ != nullptr) inner_->inspect(record);
    if (clock_ == nullptr && spans_ == nullptr) return;
    const std::int64_t t1 = now_ns();
    const auto slot = static_cast<std::size_t>(record.slot);
    if (clock_ != nullptr && record.slot >= 0 && slot < clock_->latency_ns.size()) {
      clock_->latency_ns[slot] = t1 - clock_->decide_start_ns[slot];
    }
    if (spans_ != nullptr) spans_->add(SpanKind::kFlush, record.slot, parent_, t0, t1);
  }

 private:
  std::shared_ptr<grefar::SlotInspector> inner_;
  SlotClock* clock_;
  SpanLog* spans_;
  std::int32_t parent_;
};

}  // namespace perfbench
