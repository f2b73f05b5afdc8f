#pragma once

#include <map>
#include <memory>
#include <vector>

#include "combinatorics/partition.hpp"
#include "data/dataset.hpp"
#include "kernels/kernel.hpp"
#include "kernels/mkl.hpp"

namespace iotml::core {

/// How block kernels are weighted when combined across partition blocks.
enum class WeightRule {
  kUniform,    ///< 1/B each
  kAlignment,  ///< independent centered target alignment (clipped, normalized)
  kOptimized   ///< coordinate-ascent alignment maximization
};

/// Block kernels over a fixed sample matrix, keyed by canonical block.
///
/// A block's kernel is an RBF over the block's features with a
/// median-heuristic bandwidth (equivalently: the *product* of per-feature
/// RBFs, the paper's aggregation-by-multiplication). The cache keeps only
/// that bandwidth, one double per distinct block, and no Gram: a lattice
/// search over p features can meet up to 2^p - 1 blocks, so pinning an
/// n x n Gram for each would make memory follow the blocks, not the data.
/// Every `gram_for` lookup builds the block's Gram afresh, at O(n^2 |block|)
/// kernel work.
class BlockGramCache {
 public:
  explicit BlockGramCache(const la::Matrix& x);

  /// Gram of one block (features need not be sorted; the key is canonical).
  /// Built on every call; equal bit for bit on every call.
  la::Matrix gram_for(const std::vector<std::size_t>& block);

  /// The median-heuristic bandwidth chosen for a block.
  double gamma_for(const std::vector<std::size_t>& block);

  /// Number of distinct blocks seen, each of which had its bandwidth
  /// computed once (cache misses).
  std::size_t block_grams_computed() const noexcept { return misses_; }

  /// Total cache lookups.
  std::size_t lookups() const noexcept { return lookups_; }

  const la::Matrix& samples() const noexcept { return x_; }

 private:
  using Bandwidths = std::map<std::vector<std::size_t>, double>;
  const la::Matrix x_;  // owned copy: cache outlives callers' temporaries
  Bandwidths gammas_;
  std::size_t misses_ = 0;
  std::size_t lookups_ = 0;

  /// The block's canonical (sorted) key and its bandwidth.
  const Bandwidths::value_type& entry_for(const std::vector<std::size_t>& block);
};

/// The combined Gram of a feature partition: weighted sum of its block Grams.
/// Returns the weights used through `weights_out` when non-null.
la::Matrix partition_gram(BlockGramCache& cache, const comb::SetPartition& partition,
                          const std::vector<int>& y, WeightRule rule,
                          std::vector<double>* weights_out = nullptr);

/// Build the equivalent explicit kernel object (SumKernel of block-restricted
/// RBFs) for out-of-sample prediction with the chosen partition.
std::unique_ptr<kernels::Kernel> partition_kernel(BlockGramCache& cache,
                                                  const comb::SetPartition& partition,
                                                  const std::vector<double>& weights);

}  // namespace iotml::core
