#include "core/drift_penalty.h"

#include <algorithm>
#include <cmath>

#include "obs/counters.h"
#include "util/check.h"

namespace grefar {

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
      queue_value_(num_dcs_ * num_types_, 0.0) {
  GREFAR_CHECK(params_.V >= 0.0);
  GREFAR_CHECK(params_.beta >= 0.0);
  GREFAR_CHECK(params_.r_max >= 0.0);
  GREFAR_CHECK(params_.h_max >= 0.0);

  // Static SoA arrays over all J types: eligibility as a bitmap
  // (JobType::eligible() is a linear scan over D_j — calling it per (i, j)
  // per reset made the rebuild O(N^2 J)), plus flat per-type columns so the
  // hot loops never chase job_types[j] through three indirections.
  all_.types.resize(num_types_);
  all_.eligible.assign(num_dcs_ * num_types_, 0);
  all_.work.resize(num_types_);
  all_.inv_work.resize(num_types_);
  all_.account_of.resize(num_types_);
  all_.max_rate.resize(num_types_);
  all_.rate_capped.resize(num_types_);
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
    all_.types[j] = static_cast<std::uint32_t>(j);
    all_.work[j] = jt.work;
    all_.inv_work[j] = 1.0 / jt.work;
    all_.account_of[j] = static_cast<std::uint32_t>(jt.account);
    all_.max_rate[j] = jt.max_rate;
    all_.rate_capped[j] = std::isfinite(jt.max_rate) ? 1 : 0;
    any_rate_cap_ = any_rate_cap_ || all_.rate_capped[j] != 0;
    for (DataCenterId i : jt.eligible_dcs) all_.eligible[i * num_types_ + j] = 1;
  }
  // Accounts no job type maps to can never receive work, so even the
  // all-J accumulators cover only the referenced set.
  index_accounts(all_);

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

void PerSlotProblem::index_accounts(ColumnArrays& c) {
  c.accounts = c.account_of;
  std::sort(c.accounts.begin(), c.accounts.end());
  c.accounts.erase(std::unique(c.accounts.begin(), c.accounts.end()), c.accounts.end());
  c.account_slot.resize(c.account_of.size());
  for (std::size_t a = 0; a < c.account_of.size(); ++a) {
    c.account_slot[a] = static_cast<std::uint32_t>(
        std::lower_bound(c.accounts.begin(), c.accounts.end(), c.account_of[a]) -
        c.accounts.begin());
  }
}

void PerSlotProblem::select_columns(const SlotObservation& obs) {
  // Only a valid hint under the queue clamp may drop a type: it guarantees
  // the type is empty, and the clamp turns that into ub == 0.
  const bool hinted = obs.active_types_valid && params_.clamp_to_queue;
  const std::vector<std::uint32_t>& want = hinted ? obs.active_types : all_.types;
  if (want.size() == num_types_) {
    // J strictly ascending ids below J can only be 0..J-1.
    GREFAR_CHECK_MSG(&want == &all_.types || want == all_.types,
                     "active type hint must be strictly ascending ids below "
                         << num_types_);
    all_columns_ = true;
    return;
  }
  if (!all_columns_ && want == subset_.types) return;
  all_columns_ = false;
  // NOLINTBEGIN(grefar-hot-path-alloc): subset_ re-shapes persistent
  // buffers that reach their high-water size after a few slots.
  const std::size_t A = want.size();
  subset_.types = want;
  subset_.work.resize(A);
  subset_.inv_work.resize(A);
  subset_.account_of.resize(A);
  subset_.max_rate.resize(A);
  subset_.rate_capped.resize(A);
  for (std::size_t a = 0; a < A; ++a) {
    const std::uint32_t j = want[a];
    GREFAR_CHECK_MSG(j < num_types_, "active type id " << j << " out of range");
    GREFAR_CHECK_MSG(a == 0 || j > want[a - 1],
                     "active type hint must be strictly ascending");
    subset_.work[a] = all_.work[j];
    subset_.inv_work[a] = all_.inv_work[j];
    subset_.account_of[a] = all_.account_of[j];
    subset_.max_rate[a] = all_.max_rate[j];
    subset_.rate_capped[a] = all_.rate_capped[j];
  }
  subset_.eligible.resize(num_dcs_ * A);
  for (std::size_t i = 0; i < num_dcs_; ++i) {
    const std::uint8_t* el = all_.eligible.data() + i * num_types_;
    std::uint8_t* el_sub = subset_.eligible.data() + i * A;
    for (std::size_t a = 0; a < A; ++a) el_sub[a] = el[want[a]];
  }
  index_accounts(subset_);
  // NOLINTEND(grefar-hot-path-alloc)
}

void PerSlotProblem::reset(const SlotObservation& obs) {
  const ClusterConfig& config = *config_;
  const std::size_t K = config.num_server_types();
  GREFAR_CHECK(obs.availability.rows() == num_dcs_ && obs.availability.cols() == K);
  GREFAR_CHECK(obs.dc_queue.rows() == num_dcs_ && obs.dc_queue.cols() == num_types_);
  obs_ = &obs;
  select_columns(obs);
  const ColumnArrays& c = cols();
  const std::size_t A = c.types.size();
  const std::size_t S = c.accounts.size();
  // NOLINTBEGIN(grefar-hot-path-alloc): every resize below re-shapes a
  // persistent buffer that reaches its high-water size after a few slots and
  // is reused in place thereafter (the header's allocation-free contract is
  // about the steady state, DESIGN.md §7/§12).
  account_scratch_.resize(S);
  account_partial_.resize(num_dcs_ * S);
  account_term_.resize(S);
  type_term_.resize(A);

  // Re-shape the polytope when the dimension moved. Group structure is
  // always N contiguous runs, so only the size matters; bounds and caps are
  // fully rewritten by the pass below either way.
  if (polytope_.dim() != num_dcs_ * A) polytope_.rebuild_contiguous(num_dcs_, A);
  queue_value_.resize(num_dcs_ * A);
  // NOLINTEND(grefar-hot-path-alloc)

  const std::int64_t* avail = obs.availability.data().data();
  const double* dc_queue = obs.dc_queue.data().data();
  double* ub = polytope_.mutable_upper_bounds();
  const std::size_t J = num_types_;
  const bool clamp = params_.clamp_to_queue;
  const double h_max = params_.h_max;
  const std::uint32_t* types = c.types.data();
  const double* work = c.work.data();
  const double* max_rate = c.max_rate.data();
  const std::uint8_t* rate_capped = c.rate_capped.data();

  // One fused pass per DC: curve rebuild, bands, group cap, queue values and
  // work upper bounds, all off flat row pointers. The queue row is read
  // through the column list; over all J types that is the identity, and
  // the loop gets its own stride-1 (vectorizable) instance.
  auto fill_row = [&](const double* q, const std::uint8_t* el, double* qv, double* ub_row,
                      auto column) {
    for (std::size_t a = 0; a < A; ++a) {
      const double qa = q[column(a)];
      qv[a] = el[a] != 0 ? qa / work[a] : 0.0;
      double h_cap = clamp ? std::min(h_max, qa) : h_max;
      double work_ub = std::max(h_cap, 0.0) * work[a];
      // Parallelism constraint (guarded: max_rate * ceil(q) with an
      // infinite rate and an empty queue would be inf * 0 = NaN).
      if (any_rate_cap_ && rate_capped[a] != 0) {
        work_ub = std::min(work_ub, max_rate[a] * std::ceil(qa));
      }
      ub_row[a] = el[a] != 0 ? work_ub : 0.0;
    }
  };
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
    const std::uint8_t* el = c.eligible.data() + i * A;
    double* qv = queue_value_.data() + i * A;
    double* ub_row = ub + i * A;
    if (all_columns_) {
      fill_row(q, el, qv, ub_row, [](std::size_t a) { return a; });
    } else {
      fill_row(q, el, qv, ub_row, [types](std::size_t a) { return types[a]; });
    }
  }

  // Dead-column mask for the fairness gradient (see the header): a column
  // with ub == 0 in every DC gets a zero fairness term.
  if (params_.beta > 0.0) {
    active_col_.assign(A, 0);
    const double* bounds = polytope_.upper_bounds().data();
    for (std::size_t i = 0; i < num_dcs_; ++i) {
      const double* row = bounds + i * A;
      for (std::size_t a = 0; a < A; ++a) {
        if (row[a] > 0.0) active_col_[a] = 1;
      }
    }
  }

  if (obs::counting()) {
    obs::count("fairness.active_accounts", S);
    obs::count("fairness.sparse_skips", static_cast<std::uint64_t>(num_accounts_) - S);
  }
}

PerSlotView PerSlotProblem::view() const {
  const ColumnArrays& c = cols();
  PerSlotView v;
  v.num_dcs = num_dcs_;
  v.num_types = c.types.size();
  v.num_servers = speed_.size();
  v.num_accounts = num_accounts_;
  v.type_ids = c.types.data();
  v.eligible = c.eligible.data();
  v.work = c.work.data();
  v.inv_work = c.inv_work.data();
  v.account_of = c.account_of.data();
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
  const std::size_t J = num_columns();
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
    const std::size_t S = cols().accounts.size();
    const std::uint32_t* acct_slot = cols().account_slot.data();
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
  const std::size_t S = account_scratch_.size();
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
    total -= params_.V * params_.beta *
             fairness_.score_active(cols().accounts.data(), account_scratch_.data(),
                                    account_scratch_.size(), total_resource_);
  }
  return total;
}

void PerSlotProblem::finish_gradient(bool fair, std::vector<double>& out) const {
  // Amortized: the caller's gradient buffer is sized once per shape change.
  out.resize(num_vars());  // NOLINT(grefar-hot-path-alloc)
  const ColumnArrays& c = cols();
  const std::size_t J = c.types.size();
  if (fair) {
    const double inv = fairness_.inv_total(total_resource_);
    const double vb = params_.V * params_.beta;
    const std::uint32_t* ids = c.accounts.data();
    const double* gam = fairness_.gamma().data();
    for (std::size_t s = 0; s < account_term_.size(); ++s) {
      // d/du of -V*beta*f = -V*beta * d f/d r.
      account_term_[s] =
          vb * fairness_kernel::gradient(account_scratch_[s], gam[ids[s]], inv);
    }
    // Scatter the account terms to the type columns once, so the fill below
    // is a pure stride-1 triad. Dead columns (no positive bound anywhere)
    // get 0 — see active_col_ in the header.
    const std::uint32_t* acct_slot = c.account_slot.data();
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
