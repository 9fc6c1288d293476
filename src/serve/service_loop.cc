#include "serve/service_loop.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/counters.h"
#include "obs/task_registries.h"
#include "parallel/thread_pool.h"
#include "serve/spsc_queue.h"
#include "serve/staged_feed.h"
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

// The engine-side hook: copies each SlotRecord into a pooled FlushCopy and
// hands it downstream. acquire/submit are mode-specific (queue ops when
// pipelined, a single reused buffer when serial) — the copy itself runs
// synchronously inside engine.step() on the solve thread either way, which
// is what makes the off-thread flush safe.
class ServiceLoop::PipelineInspector final : public SlotInspector {
 public:
  std::function<FlushCopy*()> acquire;
  std::function<void(FlushCopy*)> submit;

  void inspect(const SlotRecord& record) override {
    FlushCopy* copy = acquire();
    GREFAR_CHECK_MSG(copy != nullptr, "serve flush buffer pool closed");
    copy->copy_from(record);
    submit(copy);
  }
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
  GREFAR_CHECK(options_.max_slots >= 0);
  GREFAR_CHECK_MSG(jobs_->num_types() == config_->job_types.size(),
                   "job trace has " << jobs_->num_types()
                                    << " types, config expects "
                                    << config_->job_types.size());
  GREFAR_CHECK_MSG(
      prices_->num_data_centers() == config_->data_centers.size(),
      "price trace has " << prices_->num_data_centers()
                         << " DCs, config expects "
                         << config_->data_centers.size());
  // The feed's valued flag must match the trace schema at engine
  // construction — the engine samples has_valued_arrivals() once. Plain v1
  // traces keep the counts path, so their serve runs stay byte-identical.
  valued_ = jobs_->valued();
  feed_ = std::make_unique<StagedTraceFeed>(config_->job_types.size(),
                                            config_->data_centers.size(),
                                            valued_);
  inspector_ = std::make_shared<PipelineInspector>();
  engine_ = std::make_unique<SimulationEngine>(
      config_, feed_->price_model(), std::move(availability),
      feed_->arrival_process(), std::move(scheduler), options_.engine);
  if (options_.admission != nullptr) {
    engine_->set_admission_policy(options_.admission);
  }
  engine_->set_inspector(inspector_);
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

GREFAR_HOT_PATH GREFAR_DETERMINISTIC
void ServiceLoop::solve_slot(const SlotInput& in) {
  if (valued_) {
    feed_->stage_valued(in.slot, in.batches, in.prices);
  } else {
    feed_->stage(in.slot, in.arrivals, in.prices);
  }
  engine_->step();
}

Status ServiceLoop::flush_record(const FlushCopy& copy) {
  const SlotRecord rec = copy.record();
  for (const auto& inspector : flush_inspectors_) {
    try {
      inspector->inspect(rec);
    } catch (const std::exception& e) {
      return Error::make(std::string("flush inspector failed at slot ") +
                         std::to_string(copy.slot) + ": " + e.what());
    }
  }
  return {};
}

Result<ServiceStats> ServiceLoop::run() {
  GREFAR_CHECK_MSG(!ran_, "ServiceLoop::run() is single-shot");
  ran_ = true;
  return options_.pipelined ? run_pipelined() : run_serial();
}

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

Result<ServiceStats> ServiceLoop::run_serial() {
  SlotInput in;
  FlushCopy copy;
  FlushCopy* pending = nullptr;
  inspector_->acquire = [&copy]() { return &copy; };
  inspector_->submit = [&pending](FlushCopy* c) { pending = c; };

  const auto wall_start = std::chrono::steady_clock::now();
  while (options_.max_slots == 0 || slots_ < options_.max_slots) {
    auto more = ingest_one(in);
    if (!more.ok()) return more.error();
    if (!more.value()) break;
    const auto t0 = std::chrono::steady_clock::now();
    solve_slot(in);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = elapsed_ms(t0, t1);
    latency_p50_.add(ms);
    latency_p99_.add(ms);
    if (ms > latency_max_ms_) latency_max_ms_ = ms;
    ++slots_;
    if (pending != nullptr) {
      Status st = flush_record(*pending);
      pending = nullptr;
      if (!st.ok()) return st.error();
    }
  }
  const auto wall_end = std::chrono::steady_clock::now();

  ServiceStats stats;
  stats.slots = slots_;
  stats.wall_seconds = elapsed_ms(wall_start, wall_end) / 1e3;
  stats.slots_per_second =
      stats.wall_seconds > 0.0 ? static_cast<double>(slots_) / stats.wall_seconds
                               : 0.0;
  stats.latency_p50_ms = latency_p50_.value();
  stats.latency_p99_ms = latency_p99_.value();
  stats.latency_max_ms = latency_max_ms_;
  obs::count("serve.slots", static_cast<std::uint64_t>(slots_));
  return stats;
}

Result<ServiceStats> ServiceLoop::run_pipelined() {
  const std::size_t depth = options_.queue_depth;
  const std::size_t pool_size = depth + 2;  // one in flight at each stage

  std::vector<std::unique_ptr<SlotInput>> input_pool;
  std::vector<std::unique_ptr<FlushCopy>> flush_pool;
  BoundedSpscQueue<SlotInput*> input_free(pool_size);
  BoundedSpscQueue<SlotInput*> input_ready(depth);
  BoundedSpscQueue<FlushCopy*> flush_free(pool_size);
  BoundedSpscQueue<FlushCopy*> flush_ready(depth);
  for (std::size_t i = 0; i < pool_size; ++i) {
    input_pool.push_back(std::make_unique<SlotInput>());
    flush_pool.push_back(std::make_unique<FlushCopy>());
    input_free.push(input_pool.back().get());
    flush_free.push(flush_pool.back().get());
  }

  // Solve thread's flush handoff: acquire a recycled copy (blocking on the
  // flush stage = backpressure), fill it inside engine.step(), queue it.
  inspector_->acquire = [&flush_free]() -> FlushCopy* {
    FlushCopy* c = nullptr;
    return flush_free.pop(c) ? c : nullptr;
  };
  inspector_->submit = [&flush_ready](FlushCopy* c) { flush_ready.push(c); };

  std::mutex error_mutex;
  std::optional<Error> ingest_error;
  std::optional<Error> flush_error;
  std::atomic<bool> flush_failed{false};

  obs::TaskRegistries regs(2);
  double ingest_wait_ms = 0.0;
  const auto wall_start = std::chrono::steady_clock::now();
  {
    ThreadPool pool(2);

    pool.submit([&, this] {
      obs::CountersScope counters(regs.counters(0));
      SlotInput* in = nullptr;
      while (input_free.pop(in)) {
        auto more = ingest_one(*in);
        if (!more.ok()) {
          std::lock_guard<std::mutex> lock(error_mutex);
          ingest_error = more.error();
          break;
        }
        if (!more.value()) break;
        if (!input_ready.push(in)) break;
      }
      input_ready.close();
    });

    pool.submit([&, this] {
      obs::CountersScope counters(regs.counters(1));
      FlushCopy* copy = nullptr;
      while (flush_ready.pop(copy)) {
        if (!flush_failed.load(std::memory_order_relaxed)) {
          Status st = flush_record(*copy);
          if (!st.ok()) {
            {
              std::lock_guard<std::mutex> lock(error_mutex);
              flush_error = st.error();
            }
            flush_failed.store(true, std::memory_order_relaxed);
          }
        }
        flush_free.push(copy);
      }
    });

    while (options_.max_slots == 0 || slots_ < options_.max_slots) {
      if (flush_failed.load(std::memory_order_relaxed)) break;
      SlotInput* in = nullptr;
      const auto wait_start = std::chrono::steady_clock::now();
      if (!input_ready.pop(in)) break;  // ingest done (or failed)
      const auto t0 = std::chrono::steady_clock::now();
      ingest_wait_ms += elapsed_ms(wait_start, t0);
      solve_slot(*in);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms = elapsed_ms(t0, t1);
      latency_p50_.add(ms);
      latency_p99_.add(ms);
      if (ms > latency_max_ms_) latency_max_ms_ = ms;
      ++slots_;
      input_free.push(in);
    }

    // Shutdown: unblock the ingest thread (waiting on a free input or a
    // full ready queue) and let the flush thread drain what is queued.
    input_free.close();
    input_ready.close();
    flush_ready.close();
    pool.wait_idle();
  }  // ThreadPool joins
  const auto wall_end = std::chrono::steady_clock::now();
  regs.merge_ordered();

  {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (ingest_error.has_value()) return *ingest_error;
    if (flush_error.has_value()) return *flush_error;
  }

  ServiceStats stats;
  stats.slots = slots_;
  stats.wall_seconds = elapsed_ms(wall_start, wall_end) / 1e3;
  stats.slots_per_second =
      stats.wall_seconds > 0.0 ? static_cast<double>(slots_) / stats.wall_seconds
                               : 0.0;
  stats.latency_p50_ms = latency_p50_.value();
  stats.latency_p99_ms = latency_p99_.value();
  stats.latency_max_ms = latency_max_ms_;
  stats.ingest_stalls = input_ready.stats().consumer_waits;
  stats.ingest_wait_ms = ingest_wait_ms;
  stats.backpressure_blocks =
      input_ready.stats().producer_blocks + flush_ready.stats().producer_blocks +
      flush_free.stats().consumer_waits + input_free.stats().consumer_waits;
  stats.input_queue_high_water = input_ready.stats().high_water;
  stats.flush_queue_high_water = flush_ready.stats().high_water;
  obs::count("serve.slots", static_cast<std::uint64_t>(slots_));
  obs::count("serve.ingest_stalls", stats.ingest_stalls);
  obs::count("serve.backpressure_blocks", stats.backpressure_blocks);
  obs::gauge_max("serve.input_queue_high_water",
                 static_cast<double>(stats.input_queue_high_water));
  obs::gauge_max("serve.flush_queue_high_water",
                 static_cast<double>(stats.flush_queue_high_water));
  return stats;
}

}  // namespace grefar
