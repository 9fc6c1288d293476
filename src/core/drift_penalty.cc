#include "core/drift_penalty.h"

#include <algorithm>
#include <cmath>

#include "obs/counters.h"
#include "util/check.h"

namespace grefar {

PerSlotProblem::PerSlotProblem(const ClusterConfig& config, const SlotObservation& obs,
                               const GreFarParams& params)
    : PerSlotProblem(config, params) {
  reset(obs);
}

PerSlotProblem::PerSlotProblem(const ClusterConfig& config, const GreFarParams& params)
    : config_(&config),
      obs_(nullptr),
      params_(params),
      num_dcs_(config.num_data_centers()),
      num_types_(config.num_job_types()),
      num_accounts_(config.num_accounts()),
      curves_(num_dcs_),
      smoothing_band_(num_dcs_, 0.0),
      energy_band_(num_dcs_, 0.0),
      fairness_(config.gammas()),
      polytope_(std::vector<double>(num_dcs_ * num_types_, 0.0)),
      queue_value_(num_dcs_ * num_types_, 0.0),
      num_types_eff_(num_types_) {
  GREFAR_CHECK(params_.V >= 0.0);
  GREFAR_CHECK(params_.beta >= 0.0);
  GREFAR_CHECK(params_.r_max >= 0.0);
  GREFAR_CHECK(params_.h_max >= 0.0);

  // Static SoA arrays: eligibility as a bitmap (JobType::eligible() is a
  // linear scan over D_j — calling it per (i, j) per reset made the rebuild
  // O(N^2 J)), plus flat per-type columns so the hot loops never chase
  // job_types[j] through three indirections.
  eligible_.assign(num_dcs_ * num_types_, 0);
  work_.resize(num_types_);
  inv_work_.resize(num_types_);
  account_of_.resize(num_types_);
  max_rate_.resize(num_types_);
  rate_capped_.resize(num_types_);
  for (std::size_t j = 0; j < num_types_; ++j) {
    const JobType& jt = config.job_types[j];
    // Guard the fairness scatter below: an out-of-range account index would
    // corrupt the account accumulators silently. ClusterConfig::validate()
    // checks this too, but hand-built configs (tests, tools) reach here
    // without passing through validate().
    GREFAR_CHECK_MSG(jt.account < num_accounts_,
                     "job type " << j << " ('" << jt.name << "') references account "
                                 << jt.account << " but the cluster has only "
                                 << num_accounts_ << " accounts");
    work_[j] = jt.work;
    inv_work_[j] = 1.0 / jt.work;
    account_of_[j] = static_cast<std::uint32_t>(jt.account);
    max_rate_[j] = jt.max_rate;
    rate_capped_[j] = std::isfinite(jt.max_rate) ? 1 : 0;
    any_rate_cap_ = any_rate_cap_ || rate_capped_[j] != 0;
    for (DataCenterId i : jt.eligible_dcs) eligible_[i * num_types_ + j] = 1;
  }

  // Accounts no job type maps to can never receive work: the dense account
  // accumulators cover only the referenced set (account_of_ is static, so
  // this is computed once). See DESIGN.md §12 for why dropping them keeps
  // the fairness sums bitwise unchanged.
  referenced_accounts_ = account_of_;
  std::sort(referenced_accounts_.begin(), referenced_accounts_.end());
  referenced_accounts_.erase(
      std::unique(referenced_accounts_.begin(), referenced_accounts_.end()),
      referenced_accounts_.end());
  account_slot_static_.resize(num_types_);
  for (std::size_t j = 0; j < num_types_; ++j) {
    account_slot_static_[j] = static_cast<std::uint32_t>(
        std::lower_bound(referenced_accounts_.begin(), referenced_accounts_.end(),
                         account_of_[j]) -
        referenced_accounts_.begin());
  }

  const std::size_t K = config.num_server_types();
  speed_.resize(K);
  busy_power_.resize(K);
  energy_per_work_.resize(K);
  for (std::size_t k = 0; k < K; ++k) {
    speed_[k] = config.server_types[k].speed;
    busy_power_[k] = config.server_types[k].busy_power;
    energy_per_work_[k] = config.server_types[k].busy_power / config.server_types[k].speed;
  }

  for (std::size_t i = 0; i < num_dcs_; ++i) {
    std::vector<std::size_t> group(num_types_);
    for (std::size_t j = 0; j < num_types_; ++j) group[j] = i * num_types_ + j;
    polytope_.add_group(std::move(group), 0.0);
  }

  dc_capacity_.resize(num_dcs_);
  marginal_scratch_.resize(num_dcs_);
  dc_value_.resize(num_dcs_);
}

void PerSlotProblem::reset(const SlotObservation& obs) {
  const ClusterConfig& config = *config_;
  const std::size_t K = config.num_server_types();
  GREFAR_CHECK(obs.availability.rows() == num_dcs_ && obs.availability.cols() == K);
  GREFAR_CHECK(obs.dc_queue.rows() == num_dcs_ && obs.dc_queue.cols() == num_types_);
  obs_ = &obs;

  // Compact mode engages only when every dead type provably has ub == 0:
  // that requires both the hint (so we know which types are dead) and the
  // queue clamp (so empty queues actually zero the bound).
  compact_ = sparse_enabled_ && obs.active_types_valid && params_.clamp_to_queue;
  // NOLINTBEGIN(grefar-hot-path-alloc): every resize below re-shapes a
  // persistent buffer that reaches its high-water size after a few slots and
  // is reused in place thereafter (the header's allocation-free contract is
  // about the steady state, DESIGN.md §7/§12).
  if (compact_) {
    active_types_.assign(obs.active_types.begin(), obs.active_types.end());
    const std::size_t A = active_types_.size();
    num_types_eff_ = A;
    work_eff_.resize(A);
    inv_work_eff_.resize(A);
    account_of_eff_.resize(A);
    max_rate_eff_.resize(A);
    rate_capped_eff_.resize(A);
    for (std::size_t a = 0; a < A; ++a) {
      const std::uint32_t id = active_types_[a];
      GREFAR_CHECK_MSG(id < num_types_, "active type id " << id << " out of range");
      GREFAR_CHECK_MSG(a == 0 || id > active_types_[a - 1],
                       "active type hint must be strictly ascending");
      work_eff_[a] = work_[id];
      inv_work_eff_[a] = inv_work_[id];
      account_of_eff_[a] = account_of_[id];
      max_rate_eff_[a] = max_rate_[id];
      rate_capped_eff_[a] = rate_capped_[id];
    }
    eligible_eff_.resize(num_dcs_ * A);
    active_accounts_ = account_of_eff_;
    std::sort(active_accounts_.begin(), active_accounts_.end());
    active_accounts_.erase(
        std::unique(active_accounts_.begin(), active_accounts_.end()),
        active_accounts_.end());
    account_slot_eff_.resize(A);
    for (std::size_t a = 0; a < A; ++a) {
      account_slot_eff_[a] = static_cast<std::uint32_t>(
          std::lower_bound(active_accounts_.begin(), active_accounts_.end(),
                           account_of_eff_[a]) -
          active_accounts_.begin());
    }
  } else {
    num_types_eff_ = num_types_;
  }
  num_account_slots_ = compact_ ? active_accounts_.size() : referenced_accounts_.size();
  account_scratch_.resize(num_account_slots_);
  account_partial_.resize(num_dcs_ * num_account_slots_);
  account_term_.resize(num_account_slots_);
  type_term_.resize(num_types_eff_);

  // Re-shape the polytope when the effective dimension moved (compact <->
  // dense, or a different active count). Group structure is always N
  // contiguous runs, so only the size matters; bounds and caps are fully
  // rewritten by the pass below either way.
  const std::size_t J_eff = num_types_eff_;
  if (polytope_.dim() != num_dcs_ * J_eff) {
    polytope_.rebuild_contiguous(num_dcs_, J_eff);
  }
  queue_value_.resize(num_dcs_ * J_eff);
  // NOLINTEND(grefar-hot-path-alloc)

  const std::int64_t* avail = obs.availability.data().data();
  const double* dc_queue = obs.dc_queue.data().data();
  double* ub = polytope_.mutable_upper_bounds();
  const std::size_t J = num_types_;
  const bool clamp = params_.clamp_to_queue;
  const double h_max = params_.h_max;

  // One fused pass per DC: curve rebuild, bands, group cap, queue values and
  // work upper bounds, all off flat row pointers. The compact variant
  // touches O(A) columns per DC (reading the dense queue row through the
  // gather indices); its qv/ub arithmetic is the exact expression of the
  // dense branch, so corresponding entries carry identical bits.
  total_resource_ = 0.0;
  for (std::size_t i = 0; i < num_dcs_; ++i) {
    curves_[i].rebuild(config.server_types, avail + i * K, K);
    const double cap = curves_[i].capacity();
    dc_capacity_[i] = cap;
    total_resource_ += cap;
    smoothing_band_[i] = 1e-3 * cap;
    energy_band_[i] = 1e-3 * curves_[i].energy_for_work(cap);
    polytope_.set_group_cap(i, cap);

    const double* q = dc_queue + i * J;
    double* qv = queue_value_.data() + i * J_eff;
    double* ub_row = ub + i * J_eff;
    if (compact_) {
      const std::uint8_t* el = eligible_.data() + i * J;
      std::uint8_t* el_eff = eligible_eff_.data() + i * J_eff;
      for (std::size_t a = 0; a < J_eff; ++a) {
        const std::uint32_t j = active_types_[a];
        const std::uint8_t e = el[j];
        el_eff[a] = e;
        qv[a] = e != 0 ? q[j] / work_eff_[a] : 0.0;
        double h_cap = clamp ? std::min(h_max, q[j]) : h_max;
        double work_ub = std::max(h_cap, 0.0) * work_eff_[a];
        if (any_rate_cap_ && rate_capped_eff_[a] != 0) {
          work_ub = std::min(work_ub, max_rate_eff_[a] * std::ceil(q[j]));
        }
        ub_row[a] = e != 0 ? work_ub : 0.0;
      }
    } else {
      const std::uint8_t* el = eligible_.data() + i * J;
      for (std::size_t j = 0; j < J; ++j) {
        qv[j] = el[j] != 0 ? q[j] / work_[j] : 0.0;
        double h_cap = clamp ? std::min(h_max, q[j]) : h_max;
        double work_ub = std::max(h_cap, 0.0) * work_[j];
        // Parallelism constraint (guarded: max_rate * ceil(q) with an
        // infinite rate and an empty queue would be inf * 0 = NaN).
        if (any_rate_cap_ && rate_capped_[j] != 0) {
          work_ub = std::min(work_ub, max_rate_[j] * std::ceil(q[j]));
        }
        ub_row[j] = el[j] != 0 ? work_ub : 0.0;
      }
    }
  }

  // Dead-column mask for the fairness gradient (see the header): a column
  // with ub == 0 in every DC gets a zero fairness term.
  if (params_.beta > 0.0) {
    active_col_.assign(J_eff, 0);
    const double* bounds = polytope_.upper_bounds().data();
    for (std::size_t i = 0; i < num_dcs_; ++i) {
      const double* row = bounds + i * J_eff;
      for (std::size_t j = 0; j < J_eff; ++j) {
        if (row[j] > 0.0) active_col_[j] = 1;
      }
    }
  }

  if (obs::counting()) {
    const std::uint64_t act = num_account_slots_;
    obs::count("fairness.active_accounts", act);
    obs::count("fairness.sparse_skips",
               static_cast<std::uint64_t>(num_accounts_) - act);
  }
}

double PerSlotProblem::queue_value(DataCenterId i, JobTypeId j) const {
  GREFAR_CHECK_MSG(!compact_,
                   "full-space queue_value() is a dense-mode accessor; compact "
                   "callers read view().queue_value");
  GREFAR_CHECK(i < num_dcs_ && j < num_types_);
  return queue_value_[i * num_types_ + j];
}

PerSlotView PerSlotProblem::view() const {
  PerSlotView v;
  v.num_dcs = num_dcs_;
  v.num_types = num_types_eff_;
  v.num_servers = speed_.size();
  v.num_accounts = num_accounts_;
  if (compact_) {
    v.eligible = eligible_eff_.data();
    v.work = work_eff_.data();
    v.inv_work = inv_work_eff_.data();
    v.account_of = account_of_eff_.data();
    v.type_ids = active_types_.data();
  } else {
    v.eligible = eligible_.data();
    v.work = work_.data();
    v.inv_work = inv_work_.data();
    v.account_of = account_of_.data();
    v.type_ids = nullptr;
  }
  v.speed = speed_.data();
  v.busy_power = busy_power_.data();
  v.energy_per_work = energy_per_work_.data();
  v.prices = obs_->prices.data();
  v.availability = obs_->availability.data().data();
  v.queue_value = queue_value_.data();
  v.upper_bounds = polytope_.upper_bounds().data();
  v.dc_capacity = dc_capacity_.data();
  return v;
}

void PerSlotProblem::accumulate_rows(const std::vector<double>& x, bool need_value,
                                     bool need_marginal, bool need_accounts) const {
  // Rows go four at a time, then one block of the 1-3 left over (so the
  // 3-DC paper scenario overlaps all its rows too). A row's sums do not
  // depend on its block.
  std::size_t i = 0;
  for (; i + 4 <= num_dcs_; i += 4) {
    accumulate_block<4>(x.data(), i, need_value, need_marginal, need_accounts);
  }
  switch (num_dcs_ - i) {
    case 3: accumulate_block<3>(x.data(), i, need_value, need_marginal, need_accounts); break;
    case 2: accumulate_block<2>(x.data(), i, need_value, need_marginal, need_accounts); break;
    case 1: accumulate_block<1>(x.data(), i, need_value, need_marginal, need_accounts); break;
    default: break;
  }
}

template <std::size_t R>
void PerSlotProblem::accumulate_block(const double* x, std::size_t i0, bool need_value,
                                      bool need_marginal, bool need_accounts) const {
  const std::size_t J = num_types_eff_;
  const double* xr[R];
  const double* qv[R];
  double dc_work[R];
  double queue_dot[R];
  for (std::size_t r = 0; r < R; ++r) {
    xr[r] = x + (i0 + r) * J;
    qv[r] = queue_value_.data() + (i0 + r) * J;
    dc_work[r] = 0.0;
    queue_dot[r] = 0.0;
  }
  if (need_accounts) {
    const std::size_t S = num_account_slots_;
    const std::uint32_t* acct_slot =
        compact_ ? account_slot_eff_.data() : account_slot_static_.data();
    double* ap[R];
    for (std::size_t r = 0; r < R; ++r) {
      ap[r] = account_partial_.data() + (i0 + r) * S;
      std::fill(ap[r], ap[r] + S, 0.0);
    }
    for (std::size_t j = 0; j < J; ++j) {
      const std::uint32_t s = acct_slot[j];
      for (std::size_t r = 0; r < R; ++r) {
        const double u = xr[r][j];
        dc_work[r] += u;
        queue_dot[r] += qv[r][j] * u;
        ap[r][s] += u;
      }
    }
  } else {
    for (std::size_t j = 0; j < J; ++j) {
      for (std::size_t r = 0; r < R; ++r) {
        const double u = xr[r][j];
        dc_work[r] += u;
        queue_dot[r] += qv[r][j] * u;
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    finish_row(i0 + r, dc_work[r], queue_dot[r], need_value, need_marginal);
  }
}

void PerSlotProblem::finish_row(std::size_t i, double dc_work, double queue_dot,
                                bool need_value, bool need_marginal) const {
  const double energy = curves_[i].smoothed_energy(dc_work, smoothing_band_[i]);
  const double v_phi = params_.V * obs_->prices[i];
  const TieredTariff& tariff = config_->tariff(i);
  if (need_value) {
    dc_value_[i] = v_phi * tariff.smoothed_cost(energy, energy_band_[i]) - queue_dot;
  }
  if (need_marginal) {
    // Chain rule through the tariff: d cost/dW = tariff'(E(W)) * E'(W).
    marginal_scratch_[i] = v_phi * tariff.smoothed_marginal(energy, energy_band_[i]) *
                           curves_[i].smoothed_marginal(dc_work, smoothing_band_[i]);
  }
}

void PerSlotProblem::merge_account_work() const {
  const std::size_t S = num_account_slots_;
  std::fill(account_scratch_.begin(), account_scratch_.end(), 0.0);
  for (std::size_t i = 0; i < num_dcs_; ++i) {
    const double* ap = account_partial_.data() + i * S;
    for (std::size_t s = 0; s < S; ++s) account_scratch_[s] += ap[s];
  }
}

double PerSlotProblem::value(const std::vector<double>& x) const {
  GREFAR_CHECK(x.size() == num_vars());
  const bool fair = params_.beta > 0.0 && total_resource_ > 0.0;
  accumulate_rows(x, /*need_value=*/true, /*need_marginal=*/false,
                  /*need_accounts=*/fair);
  if (fair) merge_account_work();
  return finish_value(fair);
}

void PerSlotProblem::gradient(const std::vector<double>& x,
                              std::vector<double>& out) const {
  GREFAR_CHECK(x.size() == num_vars());
  const bool fair = params_.beta > 0.0 && total_resource_ > 0.0;
  accumulate_rows(x, /*need_value=*/false, /*need_marginal=*/true,
                  /*need_accounts=*/fair);
  if (fair) merge_account_work();
  finish_gradient(fair, out);
}

double PerSlotProblem::value_and_gradient(const std::vector<double>& x,
                                          std::vector<double>& out) const {
  GREFAR_CHECK(x.size() == num_vars());
  const bool fair = params_.beta > 0.0 && total_resource_ > 0.0;
  accumulate_rows(x, /*need_value=*/true, /*need_marginal=*/true,
                  /*need_accounts=*/fair);
  if (fair) merge_account_work();
  finish_gradient(fair, out);
  return finish_value(fair);
}

double PerSlotProblem::finish_value(bool fair) const {
  double total = 0.0;
  for (std::size_t i = 0; i < num_dcs_; ++i) total += dc_value_[i];
  if (fair) {
    // -V*beta*f(u): f is the (negative) fairness score, evaluated sparsely
    // over the account slots — bitwise equal to the full-M evaluation (see
    // sim/fairness.h).
    const std::uint32_t* ids =
        compact_ ? active_accounts_.data() : referenced_accounts_.data();
    total -= params_.V * params_.beta *
             fairness_.score_active(ids, account_scratch_.data(),
                                    num_account_slots_, total_resource_);
  }
  return total;
}

void PerSlotProblem::finish_gradient(bool fair, std::vector<double>& out) const {
  // Amortized: the caller's gradient buffer is sized once per shape change.
  out.resize(num_vars());  // NOLINT(grefar-hot-path-alloc)
  const std::size_t J = num_types_eff_;
  if (fair) {
    const double inv = fairness_.inv_total(total_resource_);
    const double vb = params_.V * params_.beta;
    const std::uint32_t* ids =
        compact_ ? active_accounts_.data() : referenced_accounts_.data();
    const double* gam = fairness_.gamma().data();
    for (std::size_t s = 0; s < num_account_slots_; ++s) {
      // d/du of -V*beta*f = -V*beta * d f/d r.
      account_term_[s] =
          vb * fairness_kernel::gradient(account_scratch_[s], gam[ids[s]], inv);
    }
    // Scatter the account terms to the type columns once, so the fill below
    // is a pure stride-1 triad. Dead columns (no positive bound anywhere)
    // get 0 — see active_col_ in the header.
    const std::uint32_t* acct_slot =
        compact_ ? account_slot_eff_.data() : account_slot_static_.data();
    for (std::size_t j = 0; j < J; ++j) {
      type_term_[j] = active_col_[j] != 0 ? account_term_[acct_slot[j]] : 0.0;
    }
  }
  for (std::size_t i = 0; i < num_dcs_; ++i) {
    const double m_i = marginal_scratch_[i];
    const double* qv = queue_value_.data() + i * J;
    double* out_row = out.data() + i * J;
    if (fair) {
      for (std::size_t j = 0; j < J; ++j) out_row[j] = m_i - qv[j] - type_term_[j];
    } else {
      for (std::size_t j = 0; j < J; ++j) out_row[j] = m_i - qv[j];
    }
  }
}

}  // namespace grefar
