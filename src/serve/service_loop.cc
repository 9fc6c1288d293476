#include "serve/service_loop.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <utility>

#include "obs/counters.h"
#include "obs/task_registries.h"
#include "serve/spsc_queue.h"
#include "util/check.h"

namespace grefar {

// Deep copy of one SlotRecord: every pointer field lands in owned storage
// (copy-assignment reuses capacity, so recycled copies stop allocating once
// warm). The flush stage reads these off-thread after the engine has moved
// on to later slots.
struct ServiceLoop::FlushCopy {
  std::int64_t slot = 0;
  SlotObservation obs;
  SlotAction action;
  MatrixD routed;
  MatrixD served_work;
  MatrixD dc_after;
  std::vector<double> dc_capacity;
  std::vector<double> dc_energy_cost;
  std::vector<double> dc_completions;
  std::vector<double> dc_delay_sum;
  std::vector<double> account_work;
  std::vector<double> central_after;
  double fairness = 0.0;
  std::vector<std::int64_t> arrivals;
  std::vector<std::int64_t> offered;
  bool has_offered = false;
  bool admission_active = false;
  double admitted_value = 0.0;
  double rejected_value = 0.0;
  double realized_value = 0.0;
  double decay_loss = 0.0;
  double abandoned_jobs = 0.0;
  double abandoned_work = 0.0;
  double abandoned_value = 0.0;
  double queued_value_after = 0.0;
  std::int64_t deadline_violations = 0;
  TraceScope scope;
  bool has_scope = false;

  void copy_from(const SlotRecord& r) {
    GREFAR_CHECK(r.obs != nullptr && r.action != nullptr);
    slot = r.slot;
    obs = *r.obs;
    action = *r.action;
    routed = *r.routed;
    served_work = *r.served_work;
    dc_after = *r.dc_after;
    dc_capacity = *r.dc_capacity;
    dc_energy_cost = *r.dc_energy_cost;
    dc_completions = *r.dc_completions;
    dc_delay_sum = *r.dc_delay_sum;
    account_work = *r.account_work;
    central_after = *r.central_after;
    fairness = r.fairness;
    arrivals = *r.arrivals;
    has_offered = r.offered != nullptr;
    if (has_offered) {
      offered = *r.offered;
    } else {
      offered.clear();
    }
    admission_active = r.admission_active;
    admitted_value = r.admitted_value;
    rejected_value = r.rejected_value;
    realized_value = r.realized_value;
    decay_loss = r.decay_loss;
    abandoned_jobs = r.abandoned_jobs;
    abandoned_work = r.abandoned_work;
    abandoned_value = r.abandoned_value;
    queued_value_after = r.queued_value_after;
    deadline_violations = r.deadline_violations;
    has_scope = r.scope != nullptr;
    if (has_scope) {
      scope = *r.scope;
    } else {
      scope.clear();
    }
  }

  /// A SlotRecord view over this copy's storage (valid while `this` lives).
  SlotRecord record() const {
    SlotRecord rec;
    rec.slot = slot;
    rec.obs = &obs;
    rec.action = &action;
    rec.routed = &routed;
    rec.served_work = &served_work;
    rec.dc_capacity = &dc_capacity;
    rec.dc_energy_cost = &dc_energy_cost;
    rec.dc_completions = &dc_completions;
    rec.dc_delay_sum = &dc_delay_sum;
    rec.account_work = &account_work;
    rec.fairness = fairness;
    rec.arrivals = &arrivals;
    rec.central_after = &central_after;
    rec.dc_after = &dc_after;
    rec.scope = has_scope ? &scope : nullptr;
    rec.offered = has_offered ? &offered : nullptr;
    rec.admission_active = admission_active;
    rec.admitted_value = admitted_value;
    rec.rejected_value = rejected_value;
    rec.realized_value = realized_value;
    rec.decay_loss = decay_loss;
    rec.abandoned_jobs = abandoned_jobs;
    rec.abandoned_work = abandoned_work;
    rec.abandoned_value = abandoned_value;
    rec.queued_value_after = queued_value_after;
    rec.deadline_violations = deadline_violations;
    return rec;
  }
};

// The engine-side hook: hands each SlotRecord downstream, synchronously
// inside engine.step() on the solve thread. `handoff` is mode-specific.
// Pipelined, it copies the record into a pooled FlushCopy and queues it,
// which is what makes the off-thread flush safe. Serial, it keeps the
// engine's own record: inspection is the last work of step(), so the
// pointed-to state is unchanged until the next step, and the loop flushes
// it in between.
class ServiceLoop::PipelineInspector final : public SlotInspector {
 public:
  std::function<void(const SlotRecord&)> handoff;

  void inspect(const SlotRecord& record) override { handoff(record); }
};

ServiceLoop::ServiceLoop(std::shared_ptr<const ClusterConfig> config,
                         std::shared_ptr<const AvailabilityModel> availability,
                         std::shared_ptr<Scheduler> scheduler,
                         std::unique_ptr<StreamingJobTraceSource> jobs,
                         std::unique_ptr<StreamingPriceTraceSource> prices,
                         ServiceLoopOptions options)
    : config_(std::move(config)),
      jobs_(std::move(jobs)),
      prices_(std::move(prices)),
      options_(options) {
  GREFAR_CHECK(config_ != nullptr);
  GREFAR_CHECK(jobs_ != nullptr && prices_ != nullptr);
  GREFAR_CHECK(options_.queue_depth >= 1);
  GREFAR_CHECK_MSG(jobs_->num_types() == config_->job_types.size(),
                   "job trace has " << jobs_->num_types()
                                    << " types, config expects "
                                    << config_->job_types.size());
  GREFAR_CHECK_MSG(
      prices_->num_data_centers() == config_->data_centers.size(),
      "price trace has " << prices_->num_data_centers()
                         << " DCs, config expects "
                         << config_->data_centers.size());
  valued_ = jobs_->valued();
  // No price or arrival model: every slot's input is pushed by step(in).
  engine_ = std::make_unique<SimulationEngine>(
      config_, nullptr, std::move(availability), nullptr, std::move(scheduler));
  if (options_.admission != nullptr) {
    engine_->set_admission_policy(options_.admission);
  }
}

ServiceLoop::~ServiceLoop() = default;

void ServiceLoop::add_flush_inspector(std::shared_ptr<SlotInspector> inspector) {
  GREFAR_CHECK(!ran_);
  GREFAR_CHECK(inspector != nullptr);
  flush_inspectors_.push_back(std::move(inspector));
}

const SimMetrics& ServiceLoop::metrics() const { return engine_->metrics(); }

std::int64_t ServiceLoop::slots_processed() const { return slots_; }

Result<bool> ServiceLoop::ingest_one(SlotInput& in) {
  in.slot = jobs_->next_slot();
  in.valued = valued_;
  auto more_jobs = valued_ ? jobs_->next_slot_batches_into(in.batches)
                           : jobs_->next_slot_into(in.arrivals);
  if (!more_jobs.ok()) return more_jobs.error();
  if (!more_jobs.value()) return false;
  auto more_prices = prices_->next_slot_into(in.prices);
  if (!more_prices.ok()) return more_prices.error();
  // The run covers min(job slots, price slots): a price trace shorter than
  // the job trace ends the run cleanly rather than inventing prices.
  if (!more_prices.value()) return false;
  return true;
}

namespace {

/// Cold path of solve_slot: names the slot whose step threw.
Error solve_failure(std::int64_t slot, const std::exception& e) {
  return Error::make("solve stage failed at slot " + std::to_string(slot) +
                     ": " + e.what());
}

}  // namespace

GREFAR_HOT_PATH GREFAR_DETERMINISTIC
Status ServiceLoop::solve_slot(const SlotInput& in) {
  try {
    engine_->step(in);
  } catch (const std::exception& e) {
    return solve_failure(in.slot, e);
  }
  return {};
}

Status ServiceLoop::flush_record(const SlotRecord& record) {
  for (const auto& inspector : flush_inspectors_) {
    try {
      inspector->inspect(record);
    } catch (const std::exception& e) {
      return Error::make(std::string("flush inspector failed at slot ") +
                         std::to_string(record.slot) + ": " + e.what());
    }
  }
  return {};
}

Status ServiceLoop::finish_flush_inspectors() {
  for (const auto& inspector : flush_inspectors_) {
    try {
      inspector->finish();
    } catch (const std::exception& e) {
      return Error::make("flush inspector failed to finish after " +
                         std::to_string(slots_) + " slots: " + e.what());
    }
  }
  return {};
}

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Calls `f` when the scope ends, also when a throw unwinds it.
template <typename F>
class OnScopeExit {
 public:
  explicit OnScopeExit(F f) : f_(std::move(f)) {}
  ~OnScopeExit() { f_(); }
  OnScopeExit(const OnScopeExit&) = delete;
  OnScopeExit& operator=(const OnScopeExit&) = delete;

 private:
  F f_;
};

}  // namespace

Result<ServiceStats> ServiceLoop::run() {
  GREFAR_CHECK_MSG(!ran_, "ServiceLoop::run() is single-shot");
  ran_ = true;
  // Without a flush inspector nothing reads a slot record: the engine gets
  // no inspector (and skips its record bookkeeping) and no thread starts.
  const bool flushing = !flush_inspectors_.empty();
  const bool threaded = flushing && options_.pipelined;

  // Pipelined handoff: a recycled FlushCopy per slot (one being filled, one
  // being flushed, queue_depth queued), acquired blocking on the flush
  // stage (backpressure), filled inside engine.step() and queued.
  const std::size_t depth = options_.queue_depth;
  std::vector<std::unique_ptr<FlushCopy>> flush_pool;
  BoundedSpscQueue<FlushCopy*> flush_free(depth + 2);
  BoundedSpscQueue<FlushCopy*> flush_ready(depth);
  // Serial handoff: the engine's own record, flushed after the step.
  SlotRecord record;
  bool pending = false;
  auto inspector = std::make_shared<PipelineInspector>();
  if (threaded) {
    for (std::size_t i = 0; i < depth + 2; ++i) {
      flush_pool.push_back(std::make_unique<FlushCopy>());
      flush_free.push(flush_pool.back().get());
    }
    inspector->handoff = [&flush_free, &flush_ready](const SlotRecord& r) {
      FlushCopy* copy = nullptr;
      const bool acquired = flush_free.pop(copy);
      GREFAR_CHECK_MSG(acquired, "serve flush buffer pool closed");
      copy->copy_from(r);
      flush_ready.push(copy);
    };
  } else {
    inspector->handoff = [&record, &pending](const SlotRecord& r) {
      record = r;
      pending = true;
    };
  }
  if (flushing) engine_->set_inspector(inspector);

  // Each error is written by one thread and read here after the join.
  std::optional<Error> ingest_error;
  std::optional<Error> solve_error;
  std::optional<Error> flush_error;
  std::atomic<bool> flush_failed{false};

  obs::TaskRegistries regs(1);
  std::thread flusher;
  // Closing both queues wakes a blocked side; the flush thread drains what
  // is queued and exits. Runs when the loop ends, after an error too, and
  // again (a no-op) on every exit from run(), so a throw escaping the loop
  // cannot destroy a joinable thread.
  const auto stop_flush = [&flush_ready, &flush_free, &flusher] {
    flush_ready.close();
    flush_free.close();
    if (flusher.joinable()) flusher.join();
  };
  const OnScopeExit stop_on_exit(stop_flush);
  if (threaded) {
    flusher = std::thread([&, this] {
      obs::CountersScope counters(regs.counters(0));
      FlushCopy* copy = nullptr;
      while (flush_ready.pop(copy)) {
        if (!flush_failed.load(std::memory_order_relaxed)) {
          Status st = flush_record(copy->record());
          if (!st.ok()) {
            flush_error = st.error();
            flush_failed.store(true, std::memory_order_relaxed);
          }
        }
        flush_free.push(copy);
      }
    });
  }

  SlotInput in;
  const auto wall_start = std::chrono::steady_clock::now();
  while (!flush_failed.load(std::memory_order_relaxed)) {
    auto more = ingest_one(in);
    if (!more.ok()) {
      ingest_error = more.error();
      break;
    }
    if (!more.value()) break;
    const auto t0 = std::chrono::steady_clock::now();
    if (Status solved = solve_slot(in); !solved.ok()) {
      solve_error = solved.error();
      break;
    }
    const double ms = elapsed_ms(t0, std::chrono::steady_clock::now());
    latency_p50_.add(ms);
    latency_p99_.add(ms);
    if (ms > latency_max_ms_) latency_max_ms_ = ms;
    ++slots_;
    if (pending) {
      pending = false;
      if (Status st = flush_record(record); !st.ok()) {
        flush_error = st.error();
        break;
      }
    }
  }

  stop_flush();
  const auto wall_end = std::chrono::steady_clock::now();
  regs.merge_ordered();

  // Earliest slot first: flush trails the solve stage, which trails ingest.
  if (flush_error.has_value()) return *flush_error;
  if (solve_error.has_value()) return *solve_error;
  if (ingest_error.has_value()) return *ingest_error;
  // Every record went through the inspectors.
  if (Status st = finish_flush_inspectors(); !st.ok()) return st.error();

  ServiceStats stats;
  stats.slots = slots_;
  stats.wall_seconds = elapsed_ms(wall_start, wall_end) / 1e3;
  stats.slots_per_second =
      stats.wall_seconds > 0.0 ? static_cast<double>(slots_) / stats.wall_seconds
                               : 0.0;
  stats.latency_p50_ms = latency_p50_.value();
  stats.latency_p99_ms = latency_p99_.value();
  stats.latency_max_ms = latency_max_ms_;
  stats.backpressure_blocks =
      flush_ready.stats().producer_blocks + flush_free.stats().consumer_waits;
  stats.flush_queue_high_water = flush_ready.stats().high_water;
  obs::count("serve.slots", static_cast<std::uint64_t>(slots_));
  obs::count("serve.backpressure_blocks", stats.backpressure_blocks);
  obs::gauge_max("serve.flush_queue_high_water",
                 static_cast<double>(stats.flush_queue_high_water));
  return stats;
}

}  // namespace grefar
