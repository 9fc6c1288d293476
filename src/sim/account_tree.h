// AccountTree: hierarchical accounts (org -> team -> user) for fairness at
// scale (DESIGN.md §12).
//
// The paper's fairness function (eq. (3)) is flat: M accounts with target
// shares gamma_m. Real clusters meter millions of *users* but set policy at
// the organization or team level. The tree stores one weight per node with
// the invariant that every node's children's weights sum (exactly, by
// construction) to the node's own weight — so the target-share vector read
// off at ANY level is a consistent refinement of the levels above it:
// aggregating level-l shares up to level l-1 reproduces the level-(l-1)
// shares. GreFar can therefore be solved at a chosen level (accounts_at_level
// feeds ClusterConfig directly) while metering still happens at the leaves,
// and ancestor_of_leaf() maps a leaf to its account at the solver's level.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cluster.h"
#include "util/annotations.h"

namespace grefar {

class AccountTree {
 public:
  /// Builds a full balanced tree: branching[l] children under every
  /// level-(l-1) node (branching[0] = number of roots). Node weights are
  /// drawn deterministically from `seed`: roots share weight 1.0 in random
  /// proportions, and every node splits its weight among its children in
  /// random proportions — so the sum-to-parent invariant holds exactly by
  /// construction. `skew` >= 0 controls how unequal the proportions are
  /// (0 = perfectly even split; larger = heavier skew).
  static AccountTree balanced(const std::vector<std::size_t>& branching,
                              std::uint64_t seed, double skew = 1.0);

  /// Builds from explicit per-level parents and weights. levels >= 1;
  /// parents[0] must be empty (roots), parents[l][i] indexes level l-1.
  /// Throws unless every node's children's weights sum to its weight
  /// within 1e-9 relative tolerance.
  AccountTree(std::vector<std::vector<std::uint32_t>> parents,
              std::vector<std::vector<double>> weights);

  std::size_t num_levels() const { return weights_.size(); }
  std::size_t num_nodes(std::size_t level) const;
  /// Nodes of the deepest level.
  std::size_t num_leaves() const { return weights_.back().size(); }

  /// Parent (index into level-1) of node `idx` at `level` >= 1.
  std::uint32_t parent(std::size_t level, std::size_t idx) const;
  double weight(std::size_t level, std::size_t idx) const;

  /// The ancestor at `level` of leaf `leaf` (level == num_levels()-1 is the
  /// leaf itself).
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  std::uint32_t ancestor_of_leaf(std::size_t leaf, std::size_t level) const;

  /// Target shares gamma at `level`, normalized so they sum to 1 (up to
  /// rounding): weight / total root weight.
  std::vector<double> gamma_at_level(std::size_t level) const;

  /// The level's nodes as ClusterConfig accounts ("L<level>:<index>", gamma
  /// from gamma_at_level).
  std::vector<Account> accounts_at_level(std::size_t level) const;

 private:
  void validate() const;

  std::vector<std::vector<std::uint32_t>> parents_;  // [level][node], [0] empty
  std::vector<std::vector<double>> weights_;         // [level][node]
  double total_weight_ = 0.0;                        // sum of root weights
};

}  // namespace grefar
