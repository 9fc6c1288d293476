#include "sim/account_tree.h"

#include <cmath>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace grefar {

namespace {

/// Splits `total` into `n` non-negative parts that sum to `total` exactly:
/// the first n-1 parts are rounded products, the last is the remainder.
/// `skew` = 0 gives an even split; larger values spread the proportions out.
void split_weight(double total, std::size_t n, double skew, Rng& rng,
                  std::vector<double>& out) {
  out.resize(n);
  if (n == 1) {
    out[0] = total;
    return;
  }
  double raw_sum = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    // 1 + skew * U keeps every share strictly positive at any skew.
    out[c] = 1.0 + skew * rng.uniform();
    raw_sum += out[c];
  }
  double assigned = 0.0;
  for (std::size_t c = 0; c + 1 < n; ++c) {
    out[c] = total * (out[c] / raw_sum);
    assigned += out[c];
  }
  // Exact sum-to-parent by construction; clamp fp dust on the remainder.
  out[n - 1] = std::max(total - assigned, 0.0);
}

}  // namespace

AccountTree AccountTree::balanced(const std::vector<std::size_t>& branching,
                                  std::uint64_t seed, double skew) {
  GREFAR_CHECK_MSG(!branching.empty(), "account tree needs at least one level");
  GREFAR_CHECK_MSG(skew >= 0.0, "skew must be non-negative");
  for (std::size_t b : branching) {
    GREFAR_CHECK_MSG(b > 0, "branching factors must be positive");
  }
  Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> parents(branching.size());
  std::vector<std::vector<double>> weights(branching.size());

  std::vector<double> split;
  split_weight(1.0, branching[0], skew, rng, split);
  weights[0] = split;

  for (std::size_t level = 1; level < branching.size(); ++level) {
    const std::size_t fan = branching[level];
    const std::size_t parents_n = weights[level - 1].size();
    parents[level].reserve(parents_n * fan);
    weights[level].reserve(parents_n * fan);
    for (std::size_t p = 0; p < parents_n; ++p) {
      split_weight(weights[level - 1][p], fan, skew, rng, split);
      for (std::size_t c = 0; c < fan; ++c) {
        parents[level].push_back(static_cast<std::uint32_t>(p));
        weights[level].push_back(split[c]);
      }
    }
  }
  return AccountTree(std::move(parents), std::move(weights));
}

AccountTree::AccountTree(std::vector<std::vector<std::uint32_t>> parents,
                         std::vector<std::vector<double>> weights)
    : parents_(std::move(parents)), weights_(std::move(weights)) {
  validate();
  for (double w : weights_[0]) total_weight_ += w;
}

void AccountTree::validate() const {
  GREFAR_CHECK_MSG(!weights_.empty() && parents_.size() == weights_.size(),
                   "account tree level shapes mismatch");
  GREFAR_CHECK_MSG(parents_[0].empty(), "roots cannot have parents");
  GREFAR_CHECK_MSG(!weights_[0].empty(), "account tree needs at least one root");
  for (std::size_t level = 0; level < weights_.size(); ++level) {
    for (double w : weights_[level]) {
      GREFAR_CHECK_MSG(w >= 0.0, "account tree weight < 0 at level " << level);
    }
    if (level == 0) continue;
    GREFAR_CHECK_MSG(parents_[level].size() == weights_[level].size(),
                     "level " << level << " parent/weight size mismatch");
    GREFAR_CHECK_MSG(!weights_[level].empty(),
                     "level " << level << " has no nodes");
    std::vector<double> child_sum(weights_[level - 1].size(), 0.0);
    for (std::size_t i = 0; i < parents_[level].size(); ++i) {
      const std::uint32_t p = parents_[level][i];
      GREFAR_CHECK_MSG(p < child_sum.size(),
                       "level " << level << " node " << i << " bad parent " << p);
      child_sum[p] += weights_[level][i];
    }
    for (std::size_t p = 0; p < child_sum.size(); ++p) {
      const double expect = weights_[level - 1][p];
      const double tol = 1e-9 * std::max(1.0, std::abs(expect));
      GREFAR_CHECK_MSG(std::abs(child_sum[p] - expect) <= tol,
                       "level " << level << " children of node " << p << " sum to "
                                << child_sum[p] << ", parent weighs " << expect);
    }
  }
}

std::size_t AccountTree::num_nodes(std::size_t level) const {
  GREFAR_CHECK_MSG(level < weights_.size(), "bad account-tree level " << level);
  return weights_[level].size();
}

std::uint32_t AccountTree::parent(std::size_t level, std::size_t idx) const {
  GREFAR_CHECK_MSG(level >= 1 && level < parents_.size(),
                   "bad account-tree level " << level);
  GREFAR_CHECK_MSG(idx < parents_[level].size(), "bad node index " << idx);
  return parents_[level][idx];
}

double AccountTree::weight(std::size_t level, std::size_t idx) const {
  GREFAR_CHECK_MSG(level < weights_.size(), "bad account-tree level " << level);
  GREFAR_CHECK_MSG(idx < weights_[level].size(), "bad node index " << idx);
  return weights_[level][idx];
}

std::uint32_t AccountTree::ancestor_of_leaf(std::size_t leaf,
                                            std::size_t level) const {
  const std::size_t leaf_level = weights_.size() - 1;
  GREFAR_CHECK_MSG(level <= leaf_level, "bad account-tree level " << level);
  GREFAR_CHECK_MSG(leaf < weights_[leaf_level].size(), "bad leaf " << leaf);
  auto node = static_cast<std::uint32_t>(leaf);
  for (std::size_t l = leaf_level; l > level; --l) node = parents_[l][node];
  return node;
}

std::vector<double> AccountTree::gamma_at_level(std::size_t level) const {
  GREFAR_CHECK_MSG(level < weights_.size(), "bad account-tree level " << level);
  GREFAR_CHECK_MSG(total_weight_ > 0.0, "account tree has zero total weight");
  std::vector<double> gamma(weights_[level].size());
  const double inv = 1.0 / total_weight_;
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    gamma[i] = weights_[level][i] * inv;
  }
  return gamma;
}

std::vector<Account> AccountTree::accounts_at_level(std::size_t level) const {
  std::vector<double> gamma = gamma_at_level(level);
  std::vector<Account> accounts(gamma.size());
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    // Appended piece by piece: g++ 12 reports a false -Wrestrict overlap on
    // the inlined `"L" + std::string` form.
    std::string name = "L";
    name += std::to_string(level);
    name += ':';
    name += std::to_string(i);
    accounts[i].name = std::move(name);
    accounts[i].gamma = gamma[i];
  }
  return accounts;
}

}  // namespace grefar
