#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/counters.h"
#include "obs/profile.h"
#include "util/check.h"

namespace grefar {

namespace {
/// Null-checks the shared config before the member-init list dereferences it.
std::shared_ptr<const ClusterConfig> require_config(
    std::shared_ptr<const ClusterConfig> config) {
  GREFAR_CHECK_MSG(config != nullptr, "SimulationEngine needs a cluster config");
  return config;
}
}  // namespace

SimulationEngine::SimulationEngine(ClusterConfig config,
                                   std::shared_ptr<const PriceModel> prices,
                                   std::shared_ptr<const AvailabilityModel> availability,
                                   std::shared_ptr<const ArrivalProcess> arrivals,
                                   std::shared_ptr<Scheduler> scheduler)
    : SimulationEngine(std::make_shared<const ClusterConfig>(std::move(config)),
                       std::move(prices), std::move(availability),
                       std::move(arrivals), std::move(scheduler)) {}

SimulationEngine::SimulationEngine(std::shared_ptr<const ClusterConfig> config,
                                   std::shared_ptr<const PriceModel> prices,
                                   std::shared_ptr<const AvailabilityModel> availability,
                                   std::shared_ptr<const ArrivalProcess> arrivals,
                                   std::shared_ptr<Scheduler> scheduler)
    : fairness_fn_(require_config(config)->gammas()),
      metrics_(config->num_data_centers(), config->num_accounts()) {
  // config_ is still null here, so reset() validates the config and builds
  // every piece of per-cluster state.
  reset(std::move(config), std::move(prices), std::move(availability),
        std::move(arrivals), std::move(scheduler));
}

void SimulationEngine::build_eligible_mask() {
  const std::size_t N = config_->num_data_centers();
  const std::size_t J = config_->num_job_types();
  eligible_mask_.assign(N * J, 0);
  for (std::size_t j = 0; j < J; ++j) {
    for (DataCenterId i : config_->job_types[j].eligible_dcs) {
      eligible_mask_[i * J + j] = 1;
    }
  }
}

void SimulationEngine::set_admission_policy(std::shared_ptr<AdmissionPolicy> policy) {
  admission_ = std::move(policy);
}

void SimulationEngine::reset(std::shared_ptr<const ClusterConfig> config,
                             std::shared_ptr<const PriceModel> prices,
                             std::shared_ptr<const AvailabilityModel> availability,
                             std::shared_ptr<const ArrivalProcess> arrivals,
                             std::shared_ptr<Scheduler> scheduler) {
  GREFAR_CHECK_MSG(config != nullptr, "SimulationEngine needs a cluster config");
  GREFAR_CHECK(availability != nullptr && scheduler != nullptr);
  const bool same_config = config.get() == config_.get();
  if (!same_config) config->validate();
  GREFAR_CHECK_MSG(prices == nullptr ||
                       prices->num_data_centers() == config->num_data_centers(),
                   "price model covers " << prices->num_data_centers()
                                         << " DCs, cluster has "
                                         << config->num_data_centers());
  GREFAR_CHECK_MSG(availability->num_data_centers() == config->num_data_centers(),
                   "availability model DC count mismatch");
  GREFAR_CHECK_MSG(availability->num_server_types() == config->num_server_types(),
                   "availability model server-type count mismatch");
  GREFAR_CHECK_MSG(arrivals == nullptr ||
                       arrivals->num_job_types() == config->num_job_types(),
                   "arrival process job-type count mismatch");

  config_ = std::move(config);
  prices_ = std::move(prices);
  availability_ = std::move(availability);
  arrivals_ = std::move(arrivals);
  scheduler_ = std::move(scheduler);
  admission_.reset();
  inspector_.reset();

  if (!same_config) {
    fairness_fn_ = FairnessFunction(config_->gammas());
    build_eligible_mask();
  }

  // Queues: same cluster shape ⇒ clear in place keeping capacity; otherwise
  // rebuild one queue per type, centrally and per DC.
  const std::size_t N = config_->num_data_centers();
  const std::size_t J = config_->num_job_types();
  bool queues_match = central_.size() == J && dc_.size() == N;
  for (std::size_t j = 0; queues_match && j < J; ++j) {
    queues_match = central_[j].job_work() == config_->job_types[j].work;
  }
  for (std::size_t i = 0; queues_match && i < N; ++i) {
    queues_match = dc_[i].size() == J;
  }
  if (queues_match) {
    for (auto& q : central_) q.clear();
    for (auto& row : dc_) {
      for (auto& q : row) q.clear();
    }
  } else {
    central_.clear();
    central_.reserve(J);
    for (const auto& jt : config_->job_types) central_.emplace_back(jt.work);
    dc_.assign(N, {});
    for (auto& row : dc_) {
      row.reserve(J);
      for (const auto& jt : config_->job_types) row.emplace_back(jt.work);
    }
  }

  metrics_.reset(N, config_->num_accounts());
  slot_ = 0;
  next_job_id_ = 1;
  fairness_record_ = 0.0;
  // account_work_'s all-zero invariant: zero exactly the touched entries
  // (serve() relies on it) unless the account count changed.
  if (account_work_.size() != config_->num_accounts()) {
    account_work_.assign(config_->num_accounts(), 0.0);
  } else {
    for (std::uint32_t m : touched_accounts_) account_work_[m] = 0.0;
  }
  touched_accounts_.clear();

  // A valued arrival model arms expiry from slot 0; without an arrival
  // model, the first valued input pushed to step(in) arms it.
  model_input_.valued = arrivals_ != nullptr && arrivals_->has_valued_arrivals();
  deadlines_possible_ = model_input_.valued;
  for (const auto& jt : config_->job_types) {
    if (jt.deadline != kNoDeadline) deadlines_possible_ = true;
  }
}

double SimulationEngine::central_queue_length(JobTypeId j) const {
  GREFAR_CHECK(j < central_.size());
  return central_[j].length_jobs();
}

double SimulationEngine::dc_queue_length(DataCenterId i, JobTypeId j) const {
  GREFAR_CHECK(i < dc_.size());
  GREFAR_CHECK(j < dc_[i].size());
  return dc_[i][j].length_jobs();
}

SlotObservation SimulationEngine::observe() const {
  GREFAR_CHECK_MSG(prices_ != nullptr, "observe() reads the price model");
  std::vector<double> prices(config_->num_data_centers());
  for (std::size_t i = 0; i < prices.size(); ++i) prices[i] = prices_->price(i, slot_);
  SlotObservation obs;
  observe_into(prices, obs);
  return obs;
}

void SimulationEngine::observe_into(const std::vector<double>& prices,
                                    SlotObservation& out) const {
  const std::size_t N = config_->num_data_centers();
  const std::size_t J = config_->num_job_types();
  out.slot = slot_;
  // NOLINTBEGIN(grefar-hot-path-alloc): the observation buffers are sized on
  // the first slot (N, J fixed per cluster) and reused in place afterwards;
  // active_types is clear()+refilled within its high-water capacity.
  out.prices.assign(prices.begin(), prices.end());
  availability_->availability_into(slot_, out.availability);
  out.central_queue.resize(J);
  active_flag_.assign(J, 0);
  for (std::size_t j = 0; j < J; ++j) {
    const double q = central_[j].length_jobs();
    out.central_queue[j] = q;
    if (q > 0.0) active_flag_[j] = 1;
  }
  if (out.dc_queue.rows() != N || out.dc_queue.cols() != J) {
    out.dc_queue = MatrixD(N, J);
  }
  for (std::size_t i = 0; i < dc_.size(); ++i) {
    for (std::size_t j = 0; j < dc_[i].size(); ++j) {
      const double q = dc_[i][j].length_jobs();
      out.dc_queue(i, j) = q;
      if (q > 0.0) active_flag_[j] = 1;
    }
  }
  // Active-type hint (sim/scheduler.h): every type with any queued jobs,
  // ascending. Types not listed are guaranteed empty everywhere, which lets
  // a sparse-aware scheduler work in O(active) instead of O(J).
  out.active_types.clear();
  for (std::size_t j = 0; j < J; ++j) {
    if (active_flag_[j] != 0) out.active_types.push_back(static_cast<std::uint32_t>(j));
  }
  out.active_types_valid = true;
  // NOLINTEND(grefar-hot-path-alloc)
}

void SimulationEngine::run(std::int64_t slots) {
  GREFAR_CHECK(slots >= 0);
  for (std::int64_t s = 0; s < slots; ++s) step();
}

void SimulationEngine::set_inspector(std::shared_ptr<SlotInspector> inspector) {
  inspector_ = std::move(inspector);
}

void SimulationEngine::step() {
  GREFAR_CHECK_MSG(prices_ != nullptr && arrivals_ != nullptr,
                   "step() pulls from the price and arrival models; an engine "
                   "built without them is driven by step(const SlotInput&)");
  SlotInput& in = model_input_;
  in.slot = slot_;
  // Amortized: sized N on the first slot, reused afterwards.
  in.prices.resize(config_->num_data_centers());  // NOLINT(grefar-hot-path-alloc)
  for (std::size_t i = 0; i < in.prices.size(); ++i) in.prices[i] = prices_->price(i, slot_);
  if (in.valued) {
    arrivals_->valued_arrivals_into(slot_, in.batches);
  } else {
    arrivals_->arrivals_into(slot_, in.arrivals);
  }
  step(in);
}

void SimulationEngine::step(const SlotInput& in) {
  GREFAR_CHECK_MSG(in.slot == slot_, "SlotInput for slot " << in.slot
                                                           << " pushed at engine slot "
                                                           << slot_);
  GREFAR_CHECK_MSG(in.prices.size() == config_->num_data_centers(),
                   "SlotInput has " << in.prices.size() << " prices, cluster has "
                                    << config_->num_data_centers() << " DCs");
  GREFAR_CHECK_MSG(in.valued || in.arrivals.size() == config_->num_job_types(),
                   "SlotInput has " << in.arrivals.size()
                                    << " arrival counts, cluster has "
                                    << config_->num_job_types() << " job types");
  if (in.valued) deadlines_possible_ = true;
  slot_offered_jobs_ = 0;
  slot_admitted_jobs_ = 0;
  slot_rejected_jobs_ = 0;
  slot_deadline_violations_ = 0;
  slot_admitted_value_ = 0.0;
  slot_rejected_value_ = 0.0;
  slot_realized_value_ = 0.0;
  slot_decay_loss_ = 0.0;
  slot_abandoned_jobs_ = 0.0;
  slot_abandoned_work_ = 0.0;
  slot_abandoned_value_ = 0.0;
  if (deadlines_possible_) {
    obs::ScopedTimer timer("engine.expire");
    expire_deadlines();
  }
  {
    obs::ScopedTimer timer("engine.observe");
    observe_into(in.prices, obs_scratch_);
  }
  const SlotObservation& obs = obs_scratch_;
  {
    obs::ScopedTimer timer("engine.decide");
    if (inspector_ != nullptr) {
      trace_scope_.clear();
      scheduler_->decide_into(obs, action_scratch_, &trace_scope_);
    } else {
      scheduler_->decide_into(obs, action_scratch_, nullptr);
    }
  }
  const SlotAction& action = action_scratch_;

  const std::size_t N = config_->num_data_centers();
  const std::size_t J = config_->num_job_types();
  if (inspector_ != nullptr) {
    if (routed_mat_.rows() != N || routed_mat_.cols() != J) {
      routed_mat_ = MatrixD(N, J);
      served_mat_ = MatrixD(N, J);
    }
    routed_mat_.fill(0.0);
    served_mat_.fill(0.0);
  }
  GREFAR_CHECK_MSG(action.route.rows() == N && action.route.cols() == J,
                   "action.route has wrong shape");
  GREFAR_CHECK_MSG(action.process.rows() == N && action.process.cols() == J,
                   "action.process has wrong shape");

  // Ineligible pairs must stay zero: this is a scheduler contract.
  for (std::size_t i = 0; i < N; ++i) {
    const unsigned char* eligible = eligible_mask_.data() + i * J;
    for (std::size_t j = 0; j < J; ++j) {
      if (eligible[j] == 0) {
        GREFAR_CHECK_MSG(action.route(i, j) <= 1e-9 && action.process(i, j) <= 1e-9,
                         "scheduler assigned work to ineligible DC " << i
                                                                     << " job type " << j);
      }
    }
  }

  {
    obs::ScopedTimer timer("engine.route");
    route(obs, action);
  }
  {
    obs::ScopedTimer timer("engine.serve");
    serve(obs, action);
  }
  {
    obs::ScopedTimer timer("engine.admit");
    admit_arrivals(in);
  }
  obs::count("engine.slots");

  if (inspector_ != nullptr) {
    obs::ScopedTimer timer("engine.inspect");
    // Inspector bookkeeping allocates on the first inspected slot only.
    central_after_.resize(J);  // NOLINT(grefar-hot-path-alloc)
    for (std::size_t j = 0; j < J; ++j) central_after_[j] = central_[j].length_jobs();
    if (dc_after_.rows() != N || dc_after_.cols() != J) dc_after_ = MatrixD(N, J);
    for (std::size_t i = 0; i < N; ++i) {
      for (std::size_t j = 0; j < J; ++j) dc_after_(i, j) = dc_[i][j].length_jobs();
    }
    SlotRecord record;
    record.slot = slot_;
    record.obs = &obs;
    record.action = &action;
    record.routed = &routed_mat_;
    record.served_work = &served_mat_;
    record.dc_capacity = &dc_capacity_record_;
    record.dc_energy_cost = &dc_energy_record_;
    record.dc_completions = &dc_completions_record_;
    record.dc_delay_sum = &dc_delay_record_;
    record.account_work = &account_work_;
    record.scope = &trace_scope_;
    record.fairness = fairness_record_;
    record.arrivals = &arrival_counts_;
    record.central_after = &central_after_;
    record.dc_after = &dc_after_;
    record.offered = &offered_counts_;
    record.admission_active = admission_ != nullptr || in.valued;
    record.admitted_value = slot_admitted_value_;
    record.rejected_value = slot_rejected_value_;
    record.realized_value = slot_realized_value_;
    record.decay_loss = slot_decay_loss_;
    record.abandoned_jobs = slot_abandoned_jobs_;
    record.abandoned_work = slot_abandoned_work_;
    record.abandoned_value = slot_abandoned_value_;
    record.deadline_violations = slot_deadline_violations_;
    double queued_value = 0.0;
    for (const auto& q : central_) queued_value += q.total_value();
    for (const auto& row : dc_) {
      for (const auto& q : row) queued_value += q.total_value();
    }
    record.queued_value_after = queued_value;
    trace_scope_.admission.active = admission_ != nullptr;
    trace_scope_.admission.offered_jobs = slot_offered_jobs_;
    trace_scope_.admission.admitted_jobs = slot_admitted_jobs_;
    trace_scope_.admission.rejected_jobs = slot_rejected_jobs_;
    trace_scope_.admission.admitted_value = slot_admitted_value_;
    trace_scope_.admission.rejected_value = slot_rejected_value_;
    trace_scope_.admission.threshold =
        admission_ != nullptr ? admission_->threshold(slot_)
                              : std::numeric_limits<double>::quiet_NaN();
    inspector_->inspect(record);
  }
  ++slot_;
}

void SimulationEngine::route(const SlotObservation& obs, const SlotAction& action) {
  const std::size_t N = config_->num_data_centers();
  const std::size_t J = config_->num_job_types();
  routed_per_dc_.assign(N, 0.0);

  for (std::size_t j = 0; j < J; ++j) {
    // Serve the most beneficial destinations first: ascending DC queue
    // length, which is the order the drift term q_{i,j} - Q_j rewards.
    std::vector<std::size_t>& order = route_order_;
    order.clear();
    for (std::size_t i = 0; i < N; ++i) {
      // Amortized: route_order_ is clear()+refilled within high-water capacity.
      if (action.route(i, j) > 1e-9) order.push_back(i);  // NOLINT(grefar-hot-path-alloc)
    }
    if (order.size() > 1) {
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return obs.dc_queue(a, j) < obs.dc_queue(b, j);
      });
    }
    for (std::size_t i : order) {
      // Integer-routing contract (sim/scheduler.h): a fractional ask is a
      // scheduler bug (unrounded relaxation), never something to floor away.
      const double ask = action.route(i, j);
      const double nearest = std::round(ask);
      GREFAR_CHECK_MSG(std::abs(ask - nearest) <= 1e-6,
                       "fractional routing decision r(" << i << ", " << j << ") = "
                                                        << ask);
      const auto want = static_cast<std::int64_t>(nearest);
      GREFAR_CHECK_MSG(want >= 0, "negative routing decision");
      // Whole-job counts: adding `moved` once is exact, like adding 1.0 per job.
      const auto moved =
          static_cast<double>(central_[j].transfer_front(dc_[i][j], want, slot_));
      routed_per_dc_[i] += moved;
      if (inspector_ != nullptr) routed_mat_(i, j) += moved;
    }
  }
  for (std::size_t i = 0; i < N; ++i) metrics_.dc_routed_jobs[i].add(routed_per_dc_[i]);
}

void SimulationEngine::serve(const SlotObservation& obs, const SlotAction& action) {
  const std::size_t N = config_->num_data_centers();
  const std::size_t J = config_->num_job_types();

  double total_energy = 0.0;
  double total_resource = 0.0;
  // account_work_ keeps its all-zero invariant across slots: clear exactly
  // the entries the previous slot touched instead of an O(M) refill.
  if (account_work_.size() != config_->num_accounts()) {
    account_work_.assign(config_->num_accounts(), 0.0);
  } else {
    for (std::uint32_t m : touched_accounts_) account_work_[m] = 0.0;
  }
  touched_accounts_.clear();
  std::vector<double>& account_work = account_work_;
  // Amortized: per-DC scratch sized on the first slot, reused afterwards.
  curves_.resize(N);                               // NOLINT(grefar-hot-path-alloc)
  avail_row_.resize(config_->num_server_types());  // NOLINT(grefar-hot-path-alloc)
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t k = 0; k < avail_row_.size(); ++k) {
      avail_row_[k] = obs.availability(i, k);
    }
    curves_[i].rebuild(config_->server_types, avail_row_);
    total_resource += curves_[i].capacity();
  }

  for (std::size_t i = 0; i < N; ++i) {
    // Desired work per type; clamp the total to capacity proportionally.
    want_.assign(J, 0.0);
    std::vector<double>& want = want_;
    double total_want = 0.0;
    for (std::size_t j = 0; j < J; ++j) {
      double h = action.process(i, j);
      GREFAR_CHECK_MSG(h >= -1e-9, "negative processing decision");
      want[j] = std::max(h, 0.0) * config_->job_types[j].work;
      total_want += want[j];
    }
    double capacity = curves_[i].capacity();
    if (total_want > capacity && total_want > 0.0) {
      double scale = capacity / total_want;
      for (auto& w : want) w *= scale;
    }

    double dc_work = 0.0;
    double dc_delay_sum = 0.0;
    double dc_completions = 0.0;
    for (std::size_t j = 0; j < J; ++j) {
      if (want[j] <= 0.0) continue;
      double consumed = 0.0;
      completions_.clear();
      dc_[i][j].serve_into(want[j], slot_, &consumed, completions_,
                           config_->job_types[j].max_rate);
      if (inspector_ != nullptr) served_mat_(i, j) = consumed;
      dc_work += consumed;
      if (consumed > 0.0) {
        const auto m = static_cast<std::uint32_t>(config_->job_types[j].account);
        if (account_work[m] == 0.0)
          touched_accounts_.push_back(m);  // NOLINT(grefar-hot-path-alloc)
        account_work[m] += consumed;
      }
      const JobType& jt = config_->job_types[j];
      for (const auto& c : completions_) {
        const auto delay = c.total_delay();
        dc_delay_sum += static_cast<double>(delay);
        dc_completions += 1.0;
        metrics_.record_completion_delay(delay);
        // Value realization: the job's base value decayed by its total delay
        // (workload/job.h). For the default annotation-free workload this is
        // value 1.0 x factor 1.0 — two adds per completion.
        const double realized =
            c.job.value * decay_factor(jt.decay, c.job.decay_rate, delay);
        slot_realized_value_ += realized;
        slot_decay_loss_ += c.job.value - realized;
        // Must stay zero: expire_deadlines removes overdue jobs before any
        // service (auditor invariant G); counted defensively, never silently.
        if (c.completion_slot > c.job.deadline_slot) ++slot_deadline_violations_;
      }
    }
    double energy = obs.prices[i] *
                    config_->tariff(i).cost(curves_[i].energy_for_work(dc_work));
    total_energy += energy;
    if (inspector_ != nullptr) {
      // NOLINTBEGIN(grefar-hot-path-alloc): first inspected slot only.
      dc_capacity_record_.resize(N);
      dc_energy_record_.resize(N);
      dc_completions_record_.resize(N);
      dc_delay_record_.resize(N);
      // NOLINTEND(grefar-hot-path-alloc)
      dc_capacity_record_[i] = curves_[i].capacity();
      dc_energy_record_[i] = energy;
      dc_completions_record_[i] = dc_completions;
      dc_delay_record_[i] = dc_delay_sum;
    }

    metrics_.dc_energy_cost[i].add(energy);
    metrics_.dc_work[i].add(dc_work);
    metrics_.dc_delay_sum[i].add(dc_delay_sum);
    metrics_.dc_completions[i].add(dc_completions);
    metrics_.dc_price[i].add(obs.prices[i]);
  }

  metrics_.energy_cost.add(total_energy);
  // Ascending ids give the sparse sum the same accumulation order as the
  // dense one, so score_active is bitwise identical to score() here
  // (sim/fairness.h) — including what the invariant auditor recomputes.
  std::sort(touched_accounts_.begin(), touched_accounts_.end());
  active_work_.clear();
  for (std::uint32_t m : touched_accounts_)
    active_work_.push_back(account_work[m]);  // NOLINT(grefar-hot-path-alloc)
  double f = total_resource > 0.0
                 ? fairness_fn_.score_active(touched_accounts_.data(),
                                             active_work_.data(),
                                             touched_accounts_.size(), total_resource)
                 : 0.0;
  fairness_record_ = f;
  metrics_.fairness.add(f);
  if (metrics_.has_per_account_series()) {
    for (std::size_t m = 0; m < account_work.size(); ++m) {
      metrics_.account_work[m].add(account_work[m]);
    }
  }
  for (std::uint32_t m : touched_accounts_) {
    metrics_.account_work_total[m] += account_work[m];
  }

  // Queue-size telemetry (after routing and service, before new arrivals).
  double total_q = 0.0, max_q = 0.0;
  for (const auto& q : central_) {
    total_q += q.length_jobs();
    max_q = std::max(max_q, q.length_jobs());
  }
  for (const auto& row : dc_) {
    for (const auto& q : row) {
      total_q += q.length_jobs();
      max_q = std::max(max_q, q.length_jobs());
    }
  }
  metrics_.total_queue_jobs.add(total_q);
  metrics_.max_queue_jobs.add(max_q);
  obs::gauge_max("engine.queue_high_water_jobs", max_q);
  obs::gauge_max("engine.total_queue_high_water_jobs", total_q);
}

void SimulationEngine::admit_arrivals(const SlotInput& in) {
  const std::size_t J = config_->num_job_types();
  // This slot's offered arrivals as batches. Valued inputs carry annotated
  // batches directly; counts are expanded here into one defaulted batch per
  // non-empty type, ascending (identical job construction order either
  // way — DESIGN.md §11).
  const std::vector<ArrivalBatch>* batches = &in.batches;
  if (!in.valued) {
    batch_scratch_.clear();
    for (std::size_t j = 0; j < J; ++j) {
      // A negative count becomes a batch, which the check below rejects.
      if (in.arrivals[j] == 0) continue;
      ArrivalBatch b;
      b.type = j;
      b.count = in.arrivals[j];
      // Amortized: clear()+refill within high-water capacity.
      batch_scratch_.push_back(b);  // NOLINT(grefar-hot-path-alloc)
    }
    batches = &batch_scratch_;
  }

  // NOLINTBEGIN(grefar-hot-path-alloc): sized J on the first slot, reused.
  offered_counts_.assign(J, 0);
  arrival_counts_.assign(J, 0);
  // NOLINTEND(grefar-hot-path-alloc)
  double admitted_work = 0.0;
  for (const ArrivalBatch& b : *batches) {
    GREFAR_CHECK_MSG(b.type < J, "arrival batch for unknown job type " << b.type);
    GREFAR_CHECK_MSG(b.count >= 0, "negative arrival count " << b.count);
    if (b.count == 0) continue;
    const JobType& jt = config_->job_types[b.type];
    // Batch annotations default to the job type's (NaN / sentinel = unset).
    const double value = std::isnan(b.value) ? jt.value : b.value;
    const double decay_rate = std::isnan(b.decay_rate) ? jt.decay_rate : b.decay_rate;
    const std::int64_t deadline =
        b.deadline == kTypeDefaultDeadline ? jt.deadline : b.deadline;
    GREFAR_CHECK_MSG(std::isfinite(value) && value >= 0.0,
                     "arrival batch value must be finite and >= 0, got " << value);
    GREFAR_CHECK_MSG(std::isfinite(decay_rate) && decay_rate >= 0.0,
                     "arrival batch decay rate must be finite and >= 0");
    GREFAR_CHECK_MSG(deadline == kNoDeadline || deadline >= 0,
                     "arrival batch deadline must be >= 0 or kNoDeadline");

    offered_counts_[b.type] += b.count;
    slot_offered_jobs_ += b.count;
    std::int64_t take = b.count;
    if (admission_ != nullptr) {
      take = admission_->admit(slot_, jt, b.count, value, deadline);
      GREFAR_CHECK_MSG(take >= 0 && take <= b.count,
                       "admission policy admitted " << take << " of a batch of "
                                                    << b.count);
    }
    const std::int64_t deadline_slot =
        deadline == kNoDeadline ? kNoDeadlineSlot : slot_ + deadline;
    Job proto;
    proto.id = next_job_id_;
    proto.type = b.type;
    proto.arrival_slot = slot_;
    proto.dc_entry_slot = slot_;  // updated when routed
    proto.remaining = jt.work;
    proto.value = value;
    proto.decay_rate = decay_rate;
    proto.deadline_slot = deadline_slot;
    central_[b.type].push_copies(proto, take);
    next_job_id_ += static_cast<std::uint64_t>(take);
    arrival_counts_[b.type] += take;
    slot_admitted_jobs_ += take;
    slot_rejected_jobs_ += b.count - take;
    admitted_work += static_cast<double>(take) * jt.work;
    slot_admitted_value_ += static_cast<double>(take) * value;
    slot_rejected_value_ += static_cast<double>(b.count - take) * value;
  }
  metrics_.arrived_jobs.add(static_cast<double>(slot_admitted_jobs_));
  metrics_.arrived_work.add(admitted_work);
  metrics_.offered_jobs.add(static_cast<double>(slot_offered_jobs_));
  metrics_.rejected_jobs.add(static_cast<double>(slot_rejected_jobs_));
  metrics_.abandoned_jobs.add(slot_abandoned_jobs_);
  metrics_.abandoned_work.add(slot_abandoned_work_);
  metrics_.abandoned_value.add(slot_abandoned_value_);
  metrics_.admitted_value.add(slot_admitted_value_);
  metrics_.rejected_value.add(slot_rejected_value_);
  metrics_.realized_value.add(slot_realized_value_);
  metrics_.decay_loss.add(slot_decay_loss_);
}

void SimulationEngine::expire_deadlines() {
  expired_scratch_.clear();
  for (auto& q : central_) q.expire_before(slot_, expired_scratch_);
  for (auto& row : dc_) {
    for (auto& q : row) q.expire_before(slot_, expired_scratch_);
  }
  for (const Job& job : expired_scratch_) {
    slot_abandoned_jobs_ += 1.0;
    slot_abandoned_work_ += job.remaining;
    slot_abandoned_value_ += job.value;
  }
  if (!expired_scratch_.empty()) {
    obs::count("engine.jobs_abandoned",
               static_cast<std::uint64_t>(expired_scratch_.size()));
  }
}

}  // namespace grefar
