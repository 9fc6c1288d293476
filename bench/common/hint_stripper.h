// HintStripper: a Scheduler decorator that forwards every observation with
// the active-type hint stripped, so the scheduler behind it decides over
// all J job-type columns. It is the all-types oracle leg of
// large_scale_smoke and of the per-slot accuracy tests: GreFar over the
// active columns must match it bit for bit (DESIGN.md §12).
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "sim/scheduler.h"

namespace grefar::bench {

class HintStripper final : public Scheduler {
 public:
  explicit HintStripper(std::shared_ptr<Scheduler> inner) : inner_(std::move(inner)) {}

  SlotAction decide(const SlotObservation& obs) override {
    SlotAction action;
    decide_into(obs, action);
    return action;
  }
  void decide_into(const SlotObservation& obs, SlotAction& out) override {
    decide_into(obs, out, nullptr);
  }
  void decide_into(const SlotObservation& obs, SlotAction& out,
                   TraceScope* scope) override {
    stripped_ = obs;
    stripped_.active_types_valid = false;
    stripped_.active_types.clear();
    inner_->decide_into(stripped_, out, scope);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<Scheduler> inner_;
  SlotObservation stripped_;
};

}  // namespace grefar::bench
