#include "sim/account_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "util/check.h"

namespace grefar {
namespace {

TEST(AccountTree, BalancedShapes) {
  AccountTree t = AccountTree::balanced({3, 4, 5}, 7);
  EXPECT_EQ(t.num_levels(), 3u);
  EXPECT_EQ(t.num_nodes(0), 3u);
  EXPECT_EQ(t.num_nodes(1), 12u);
  EXPECT_EQ(t.num_nodes(2), 60u);
  EXPECT_EQ(t.num_leaves(), 60u);
}

TEST(AccountTree, WeightsSumDownToParents) {
  AccountTree t = AccountTree::balanced({4, 3, 6}, 42, 2.5);
  for (std::size_t level = 1; level < t.num_levels(); ++level) {
    std::vector<double> child_sum(t.num_nodes(level - 1), 0.0);
    for (std::size_t i = 0; i < t.num_nodes(level); ++i) {
      child_sum[t.parent(level, i)] += t.weight(level, i);
    }
    for (std::size_t p = 0; p < child_sum.size(); ++p) {
      EXPECT_NEAR(child_sum[p], t.weight(level - 1, p), 1e-12)
          << "level " << level << " parent " << p;
    }
  }
}

TEST(AccountTree, GammaAtEveryLevelSumsToOne) {
  AccountTree t = AccountTree::balanced({5, 7, 4}, 3);
  for (std::size_t level = 0; level < t.num_levels(); ++level) {
    std::vector<double> g = t.gamma_at_level(level);
    double sum = std::accumulate(g.begin(), g.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "level " << level;
    for (double v : g) EXPECT_GE(v, 0.0);
  }
}

TEST(AccountTree, AncestorChainIsConsistent) {
  AccountTree t = AccountTree::balanced({3, 4, 5}, 11);
  for (std::size_t leaf = 0; leaf < t.num_leaves(); ++leaf) {
    EXPECT_EQ(t.ancestor_of_leaf(leaf, 2), leaf);
    const std::uint32_t team = t.ancestor_of_leaf(leaf, 1);
    EXPECT_EQ(team, t.parent(2, leaf));
    EXPECT_EQ(t.ancestor_of_leaf(leaf, 0), t.parent(1, team));
  }
}

TEST(AccountTree, AggregatedGammasRefineUpward) {
  // The level-l shares aggregated to level l-1 must reproduce the
  // level-(l-1) shares: that is what makes solving fairness at any level
  // consistent with the levels above.
  AccountTree t = AccountTree::balanced({4, 5, 6}, 99, 3.0);
  for (std::size_t level = t.num_levels() - 1; level > 0; --level) {
    std::vector<double> fine = t.gamma_at_level(t.num_levels() - 1);
    std::vector<double> coarse = t.gamma_at_level(level - 1);
    std::vector<double> folded(coarse.size(), 0.0);
    for (std::size_t leaf = 0; leaf < fine.size(); ++leaf) {
      folded[t.ancestor_of_leaf(leaf, level - 1)] += fine[leaf];
    }
    ASSERT_EQ(folded.size(), coarse.size());
    for (std::size_t i = 0; i < coarse.size(); ++i) {
      EXPECT_NEAR(folded[i], coarse[i], 1e-12);
    }
  }
}

TEST(AccountTree, AccountsAtLevelFeedClusterConfig) {
  AccountTree t = AccountTree::balanced({2, 2, 3}, 1);
  std::vector<Account> accounts = t.accounts_at_level(1);
  ASSERT_EQ(accounts.size(), 4u);
  for (std::size_t i = 0; i < accounts.size(); ++i) {
    EXPECT_EQ(accounts[i].name, "L1:" + std::to_string(i));
    EXPECT_DOUBLE_EQ(accounts[i].gamma, t.gamma_at_level(1)[i]);
  }
}

TEST(AccountTree, DeterministicPerSeed) {
  AccountTree a = AccountTree::balanced({3, 3, 3}, 123);
  AccountTree b = AccountTree::balanced({3, 3, 3}, 123);
  AccountTree c = AccountTree::balanced({3, 3, 3}, 124);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.num_leaves(); ++i) {
    EXPECT_EQ(a.weight(2, i), b.weight(2, i));
    if (a.weight(2, i) != c.weight(2, i)) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(AccountTree, RejectsMalformedTrees) {
  EXPECT_THROW(AccountTree::balanced({}, 1), ContractViolation);
  EXPECT_THROW(AccountTree::balanced({3, 0}, 1), ContractViolation);
  // Children summing to the wrong parent weight.
  EXPECT_THROW(AccountTree({{}, {0, 0}}, {{1.0}, {0.4, 0.7}}), ContractViolation);
  // Bad parent index.
  EXPECT_THROW(AccountTree({{}, {2}}, {{1.0}, {1.0}}), ContractViolation);
}

}  // namespace
}  // namespace grefar
