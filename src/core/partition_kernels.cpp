#include "core/partition_kernels.hpp"

#include <algorithm>

#include "multiview/views.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace iotml::core {

BlockGramCache::BlockGramCache(const la::Matrix& x) : x_(x) {
  IOTML_CHECK(x_.rows() >= 2, "BlockGramCache: need at least 2 samples");
  IOTML_CHECK(x_.cols() >= 1, "BlockGramCache: need at least 1 feature");
}

const BlockGramCache::Bandwidths::value_type& BlockGramCache::entry_for(
    const std::vector<std::size_t>& block) {
  IOTML_CHECK(!block.empty(), "BlockGramCache: empty block");
  std::vector<std::size_t> key = block;
  std::sort(key.begin(), key.end());
  IOTML_CHECK(key.back() < x_.cols(), "BlockGramCache: feature out of range");

  ++lookups_;
  static obs::Counter& lookups = obs::registry().counter("lattice.block_gram_lookups");
  lookups.add();
  auto it = gammas_.find(key);
  if (it == gammas_.end()) {
    ++misses_;
    static obs::Counter& builds = obs::registry().counter("lattice.block_gram_builds");
    builds.add();
    const double gamma = kernels::median_heuristic_gamma(x_, key);
    it = gammas_.emplace(std::move(key), gamma).first;
  }
  return *it;
}

la::Matrix BlockGramCache::gram_for(const std::vector<std::size_t>& block) {
  const auto& [key, gamma] = entry_for(block);
  // The Gram of SubsetKernel(RbfKernel(gamma), key) over x_, bit for bit, with
  // each sample projected onto the block once instead of once per pair.
  return kernels::gram(kernels::RbfKernel(gamma), multiview::project(x_, key));
}

double BlockGramCache::gamma_for(const std::vector<std::size_t>& block) {
  return entry_for(block).second;
}

la::Matrix partition_gram(BlockGramCache& cache, const comb::SetPartition& partition,
                          const std::vector<int>& y, WeightRule rule,
                          std::vector<double>* weights_out) {
  IOTML_CHECK(partition.ground_size() == cache.samples().cols(),
              "partition_gram: partition ground set != feature count");
  const auto blocks = partition.blocks();

  std::vector<la::Matrix> grams;
  grams.reserve(blocks.size());
  for (const auto& block : blocks) grams.push_back(cache.gram_for(block));

  std::vector<double> weights;
  switch (rule) {
    case WeightRule::kUniform:
      weights = kernels::uniform_weights(grams.size());
      break;
    case WeightRule::kAlignment:
      weights = kernels::alignment_weights(grams, y);
      break;
    case WeightRule::kOptimized:
      weights = kernels::optimize_alignment_weights(grams, y);
      break;
  }
  if (weights_out != nullptr) *weights_out = weights;
  return kernels::combine_grams(grams, weights);
}

std::unique_ptr<kernels::Kernel> partition_kernel(BlockGramCache& cache,
                                                  const comb::SetPartition& partition,
                                                  const std::vector<double>& weights) {
  const auto blocks = partition.blocks();
  IOTML_CHECK(weights.size() == blocks.size(), "partition_kernel: weight count mismatch");
  std::vector<std::unique_ptr<kernels::Kernel>> terms;
  terms.reserve(blocks.size());
  for (const auto& block : blocks) {
    terms.push_back(std::make_unique<kernels::SubsetKernel>(
        std::make_unique<kernels::RbfKernel>(cache.gamma_for(block)), block));
  }
  return std::make_unique<kernels::SumKernel>(std::move(terms), weights);
}

}  // namespace iotml::core
