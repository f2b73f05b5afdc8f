#pragma once

#include <vector>

#include "core/partition_kernels.hpp"
#include "data/dataset.hpp"
#include "kernels/svm.hpp"

namespace iotml::core {

/// Options shared by all lattice search strategies.
struct SearchOptions {
  WeightRule weights = WeightRule::kAlignment;
  std::size_t cv_folds = 4;
  kernels::SvmParams svm{};
  std::uint64_t cv_seed = 17;       ///< one seed -> same folds for every candidate
  double min_improvement = 1e-4;    ///< the paper's stopping rule threshold
  std::size_t patience = 2;         ///< chain search: non-improving steps allowed
  std::uint64_t max_exhaustive = 21147;  ///< refuse exhaustive cones beyond Bell(9)
};

/// One scored partition along the search trajectory.
struct EvaluatedPartition {
  comb::SetPartition partition;
  double score = 0.0;
};

struct SearchResult {
  comb::SetPartition best;
  double best_score = 0.0;
  std::size_t partitions_evaluated = 0;   ///< SVM cross-validations run
  /// Distinct blocks the evaluator's cache has seen (one bandwidth each).
  /// Not a count of Gram builds: each lookup builds one.
  std::size_t block_grams_computed = 0;
  std::vector<EvaluatedPartition> trajectory;
  std::vector<double> best_weights;       ///< block weights of `best`
};

/// Shared scoring machinery: CV accuracy of the partition-MKL SVM over a
/// fixed fold assignment (same folds for every candidate, so scores are
/// comparable).
class PartitionEvaluator {
 public:
  PartitionEvaluator(const data::Samples& train, SearchOptions options);

  /// k-fold CV accuracy of the partition's combined kernel.
  double score(const comb::SetPartition& partition);

  std::size_t evaluations() const noexcept { return evaluations_; }
  BlockGramCache& cache() noexcept { return cache_; }
  const data::Samples& train() const noexcept { return train_; }
  const SearchOptions& options() const noexcept { return options_; }

  /// Weights the rule assigns to a partition's blocks (for the final model).
  std::vector<double> weights_for(const comb::SetPartition& partition);

 private:
  data::Samples train_;
  SearchOptions options_;
  BlockGramCache cache_;
  std::size_t evaluations_ = 0;
};

/// The search cone of Section III: partitions of the full feature set that
/// keep the distinguished block K intact and partition the remaining
/// features R = S - K freely. K may be empty (search all of Pi(S)).
struct SearchCone {
  std::vector<std::size_t> k_block;   ///< features frozen together (may be empty)
  std::vector<std::size_t> rest;      ///< R = S - K, in exploration order
};

/// Build the cone from a chosen K over `dim` features; `rest` keeps
/// ascending feature order (reorder with multiview::correlation_order for
/// the chain strategy).
SearchCone make_cone(std::size_t dim, const std::vector<std::size_t>& k_block);

/// Lift a partition rho of `cone.rest` (by position) to a partition of the
/// full feature set with K as an extra block (when non-empty).
comb::SetPartition lift_to_features(const SearchCone& cone,
                                    const comb::SetPartition& rho);

/// Exhaustive cone exploration: every partition of R (Bell(|R|) candidates;
/// guarded by options.max_exhaustive). The paper's complexity strawman.
SearchResult exhaustive_cone_search(PartitionEvaluator& evaluator,
                                    const SearchCone& cone);

/// Greedy downward refinement: start at (K, R); repeatedly evaluate all
/// covers obtained by splitting one block of rho in two, move to the best
/// while it improves by min_improvement ("adding an additional kernel will
/// not improve the performance of the system" = stop). Blocks larger than
/// 12 features only consider splits contiguous in exploration order.
SearchResult greedy_refinement_search(PartitionEvaluator& evaluator,
                                      const SearchCone& cone);

/// Chain-decomposition-guided search: walk the saturated symmetric chain of
/// Pi(R) that peels one feature of R at a time off the big block, in
/// exploration order (see [11]'s C1-type chain). Exactly |R| candidate
/// evaluations in the worst case — the linear-cost strategy claimed in
/// Section III. Stops after `patience` non-improving steps.
SearchResult chain_search(PartitionEvaluator& evaluator, const SearchCone& cone);

/// "Smushing" search (the paper's term, from [6], [7]): start from the
/// discrete partition of R and repeatedly apply the lattice *join* that
/// merges the pair of blocks whose kernels are most mutually aligned —
/// agglomerative clustering in kernel space. This walks one data-driven
/// saturated chain from bottom to top (|R| SVM evaluations) but chooses the
/// chain from pairwise alignments instead of a fixed feature order; the
/// alignment computations are O(|R|^2) cheap Gram operations, no SVM.
/// Stops after `patience` non-improving merges.
SearchResult smushing_search(PartitionEvaluator& evaluator, const SearchCone& cone);

}  // namespace iotml::core
